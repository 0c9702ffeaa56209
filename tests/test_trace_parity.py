"""A traced run on real threads records what a serial one records.

Every ``node`` span's counters are written on the thread that submitted
the node's regions, after their barriers, from what the items returned
(:func:`repro.lolepop.base._close_spans`, a step's ``finish``). A work item
that wrote its node's span itself would race the other items on four
threads. So the chain shapes of ``test_chain_differential`` and a HASHAGG
over many morsels run traced twice, serial in simulated mode and on four
real threads, with ``tiny_partitions`` so that every buffer has many
partitions and the merge is partitioned: each node's span attributes,
timings aside, must be equal. The attributes also check their writer: only
the thread that made them (the submitting one) may write them, so a write
from a work item fails even when it loses no update.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import EngineConfig
from repro.lolepop import base

from tests.test_chain_differential import SHAPES as CHAIN_SHAPES

pytestmark = pytest.mark.usefixtures("tiny_partitions")

SHAPES = dict(
    CHAIN_SHAPES,
    # A window over ~400 dates: an item for each of the 64 partitions.
    window_many_partitions=(
        "SELECT d, q, sum(q) OVER (PARTITION BY d ORDER BY q) AS s1, "
        "min(q) OVER (PARTITION BY d) AS m1 FROM r"
    ),
    # 25 morsels of 20 rows: 25 partials, a partitioned merge.
    hashagg_morsels="SELECT k, n, sum(q), count(*), min(s) FROM r GROUP BY k, n",
)

#: Morsels of 20 rows: the 500-row ``r`` table is 25 of them.
MORSEL_ROWS = 20

SERIAL = {"execution_mode": "simulated", "num_threads": 1}
PARALLEL = {"execution_mode": "parallel", "num_threads": 4}


class OwnedAttrs(dict):
    """A span's attributes, writable only on the thread that made them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.owner = threading.get_ident()

    def _check(self, what):
        assert threading.get_ident() == self.owner, f"{what} written by a work item"

    def __setitem__(self, key, value):
        self._check(key)
        super().__setitem__(key, value)

    def update(self, *args, **kwargs):
        self._check("an update")
        super().update(*args, **kwargs)


_node_attrs = base.node_attrs


def owned_node_attrs():
    """``base.node_attrs``, owned by the calling thread."""
    attrs = OwnedAttrs(_node_attrs())
    attrs["extra"] = OwnedAttrs()
    return attrs


def node_attrs(result):
    """Each executed node's span attributes, in DAG order; the merge fan-out
    and partition counts included, timings (span start and end) not."""
    return [
        (node.name(), node.span.attrs)
        for dag in result.dags
        for node in dag.topological_order()
        if node.span is not None
    ]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_parallel_spans_match_serial(db, monkeypatch, shape):
    sql = SHAPES[shape]
    monkeypatch.setattr(base, "node_attrs", owned_node_attrs)

    def traced(scheduler):
        config = EngineConfig(
            collect_trace=True, morsel_size=MORSEL_ROWS, **scheduler
        )
        return node_attrs(db.sql(sql, config=config))

    serial = traced(SERIAL)
    assert serial, f"{shape} recorded no node span"
    if shape == "hashagg_morsels":
        (extra,) = [a["extra"] for name, a in serial if name == "HASHAGG"]
        assert extra["merge"] == "partitioned" and extra["preagg_partials"] == 25
    # A 1 µs switch interval lets items interleave between a read and a
    # write of shared state.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert traced(PARALLEL) == serial
    finally:
        sys.setswitchinterval(interval)
