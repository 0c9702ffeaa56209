"""Low-level plan operators (LOLEPOPs) — the paper's core contribution.

Eight operators (Table 1 of the paper) compose every flavor of SQL
aggregation:

=========  ========================  =========================================
kind       operator                  module
=========  ========================  =========================================
transform  :class:`PartitionOp`      :mod:`repro.lolepop.partition_op`
transform  :class:`SortOp`           :mod:`repro.lolepop.sort_op`
transform  :class:`MergeOp`          :mod:`repro.lolepop.merge_op`
transform  :class:`CombineOp`        :mod:`repro.lolepop.combine_op`
transform  :class:`ScanOp`           :mod:`repro.lolepop.scan_op`
compute    :class:`WindowOp`         :mod:`repro.lolepop.window_op`
compute    :class:`OrdAggOp`         :mod:`repro.lolepop.ordagg_op`
compute    :class:`HashAggOp`        :mod:`repro.lolepop.hashagg_op`
=========  ========================  =========================================

:mod:`repro.lolepop.translate` derives a DAG of these from a logical plan
(the five-step algorithm of Figure 2); :mod:`repro.lolepop.optimizer`
implements the step-E passes; :mod:`repro.lolepop.engine` executes the
result. Each operator class declares its own contract — stream/buffer
signature, required and derived physical properties
(:mod:`repro.lolepop.properties`) — and :mod:`repro.lolepop.verify`
statically checks any DAG against those contracts before execution (see
docs/plan_verifier.md).
"""

from .base import Lolepop, SourceOp, Dag
from .partition_op import PartitionOp
from .sort_op import SortOp
from .merge_op import MergeOp
from .scan_op import ScanOp
from .combine_op import CombineOp
from .hashagg_op import HashAggOp
from .ordagg_op import OrdAggOp
from .window_op import WindowOp
from .reuse_op import CachedBufferOp, ViewSourceOp
from .engine import LolepopEngine
from .translate import translate_statistics
from .properties import PhysProps
from .verify import Diagnostic, check_dag, derive_properties, verify_dag

__all__ = [
    "Lolepop",
    "SourceOp",
    "Dag",
    "PartitionOp",
    "SortOp",
    "MergeOp",
    "ScanOp",
    "CombineOp",
    "CachedBufferOp",
    "ViewSourceOp",
    "HashAggOp",
    "OrdAggOp",
    "WindowOp",
    "LolepopEngine",
    "translate_statistics",
    "PhysProps",
    "Diagnostic",
    "check_dag",
    "derive_properties",
    "verify_dag",
]
