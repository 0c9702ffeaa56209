"""Engine configuration and per-query execution context."""

from __future__ import annotations

import inspect
from typing import Callable, List, Optional, Sequence, Tuple

from ..storage.spill import SPILL_COUNTERS, SpillManager
from .parallel import ParallelScheduler
from .scheduler import SimulatedScheduler
from .trace import ExecutionTrace

#: ``simulated`` — work items run serially, measured durations are
#: list-scheduled onto virtual threads (deterministic makespan model).
#: ``parallel`` — work items run on a real thread pool; numpy kernels
#: release the GIL, so independent partitions overlap on multi-core
#: hardware.
EXECUTION_MODES = ("simulated", "parallel")

#: ``off`` — no verification (one guard branch per DAG build).
#: ``on`` — structural + property verification after translation.
#: ``strict`` — additionally after every optimizer rewrite pass (failures
#: attributed to the pass that fired), at plan-cache template insert, and
#: on every cache-hit clone after SOURCE rebinding.
VERIFY_MODES = ("off", "on", "strict")


class EngineConfig:
    """Tunables shared by all engines.

    The optimizer flags correspond to the DAG optimization passes of the
    paper's step E (Figure 2); disabling one is the ablation knob the
    benchmarks sweep. The §3.3 DISTINCT lowering is not a knob: the
    translator prices it with the cardinality estimator the query runs
    with (:func:`~repro.lolepop.translate.translate_statistics`).
    """

    def __init__(
        self,
        num_threads: int = 1,
        num_partitions: int = 64,
        morsel_size: int = 100_000,
        collect_trace: bool = False,
        execution_mode: str = "simulated",
        # --- optimizer ablation flags (LOLEPOP engine only) -------------
        reuse_buffers: bool = True,
        elide_sorts: bool = True,
        remove_redundant_combines: bool = True,
        reaggregate_grouping_sets: bool = True,
        two_phase_hashagg: bool = True,
        permutation_vectors: bool = True,
        # --- spilling (paper §7 future work) -----------------------------
        memory_budget_bytes: Optional[int] = None,
        spill_directory: Optional[str] = None,
        # --- service layer -------------------------------------------------
        cancellation=None,
        # --- static plan verifier ------------------------------------------
        verify_plans: Optional[str] = None,
        # --- cross-query materialization manager ---------------------------
        reuse=None,
    ):
        if execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {execution_mode!r}; "
                f"choose from {EXECUTION_MODES}"
            )
        if verify_plans is None:
            import os

            verify_plans = os.environ.get("REPRO_VERIFY_PLANS", "off")
        if verify_plans not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify_plans {verify_plans!r}; "
                f"choose from {VERIFY_MODES}"
            )
        self.num_threads = num_threads
        #: Upper bound on the partitions of a buffer and of a HASHAGG merge
        #: (the ``x64`` of EXPLAIN). The count itself follows the rows at run
        #: time, one partition per
        #: :data:`~repro.lolepop.partition_op.ROWS_PER_PARTITION` rows; under
        #: ``memory_budget_bytes`` a PARTITION, keyed or round-robin, builds
        #: exactly this many.
        self.num_partitions = num_partitions
        self.morsel_size = morsel_size
        #: When True the span tree gets a ``node`` per executed operator
        #: holding its counters, a ``region`` per barrier and an ``item`` per
        #: scheduled unit, and the result is the query's profile. Off by
        #: default: the hot path then pays one check per DAG unit.
        self.collect_trace = collect_trace
        self.execution_mode = execution_mode
        self.reuse_buffers = reuse_buffers
        self.elide_sorts = elide_sorts
        self.remove_redundant_combines = remove_redundant_combines
        self.reaggregate_grouping_sets = reaggregate_grouping_sets
        self.two_phase_hashagg = two_phase_hashagg
        self.permutation_vectors = permutation_vectors
        #: When set, the bytes a tuple buffer's partitions keep loaded
        #: *between work items* stay within this many bytes: PARTITION
        #: spills what does not fit, and a chain item (the SORT / WINDOW /
        #: ORDAGG / SCAN steps over one partition) loads at most one
        #: spilled partition, once. It bounds buffers,
        #: not the process — operator input streams are materialized
        #: (docs/architecture.md §2).
        self.memory_budget_bytes = memory_budget_bytes
        self.spill_directory = spill_directory
        #: Optional per-query
        #: :class:`~repro.execution.cancellation.CancellationToken`; both
        #: schedulers check it when entering every region barrier and
        #: between the steps of a chain item, raising
        #: :class:`~repro.errors.QueryCancelled` on cancel/timeout.
        self.cancellation = cancellation
        #: Static plan verifier mode (see :data:`VERIFY_MODES`). ``None``
        #: resolves from ``REPRO_VERIFY_PLANS`` (default ``off``); the test
        #: suite and CI set ``on``. Deliberately *not* part of
        #: :meth:`translation_fingerprint`: it changes what is checked, not
        #: the DAG that is built.
        self.verify_plans = verify_plans
        #: Optional :class:`~repro.reuse.MaterializationManager`: the
        #: translator consults it to substitute cached-buffer SOURCEs and
        #: serve aggregate views; operators offer materialized buffers back.
        #: Part of :meth:`translation_fingerprint` as a boolean — a DAG
        #: template with reuse substitutions must never serve a reuse-off
        #: config (and vice versa).
        self.reuse = reuse

    def translation_fingerprint(self) -> tuple:
        """Hashable summary of every knob that influences logical-plan →
        LOLEPOP-DAG translation. Two configs with equal fingerprints produce
        structurally identical DAGs for the same bound plan, which is what
        lets the plan cache reuse translated DAG templates across queries.
        A *config* identity, not a plan identity: it names no plan and only
        ever appears paired with one (a template slot, a telemetry
        fingerprint)."""
        return (
            self.num_partitions,
            self.reuse_buffers,
            self.elide_sorts,
            self.remove_redundant_combines,
            self.reaggregate_grouping_sets,
            self.two_phase_hashagg,
            self.permutation_vectors,
            self.reuse is not None,
        )

    def clone(self, **overrides) -> "EngineConfig":
        """A copy of this config with keyword overrides applied."""
        kwargs = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        kwargs.update(overrides)
        return EngineConfig(**kwargs)


#: ``EngineConfig.__init__``'s parameter names (each is stored as an attribute
#: of the same name), read off the signature once — ``clone`` runs once per
#: service submission.
_CONFIG_FIELDS = tuple(inspect.signature(EngineConfig.__init__).parameters)[1:]


class ExecutionContext:
    """Per-query state: scheduler, span tree, and the phase label that
    names a pipeline in trace output."""

    def __init__(
        self, config: Optional[EngineConfig] = None, trace: Optional[ExecutionTrace] = None
    ):
        self.config = config or EngineConfig()
        #: The statement's span tree: the caller's (its root carries the
        #: per-query attribution, its cursor sits in the ``execute`` stage),
        #: else a bare one when ``collect_trace`` asks for the whole tree.
        if trace is None and self.config.collect_trace:
            trace = ExecutionTrace()
        self.trace = trace
        scheduler = (
            ParallelScheduler if self.config.execution_mode == "parallel" else SimulatedScheduler
        )
        # Only a scheduler that was asked for regions is handed the tree.
        self.scheduler = scheduler(
            self.config.num_threads,
            self.trace if self.config.collect_trace else None,
            self.config.cancellation,
        )
        self._phase = "p0"
        self._phase_counter = 0
        self._spill_manager = None
        #: Under ``collect_trace``, one line per executed join in execution
        #: order, appended on the submitting thread after the probe barrier.
        self.joins: List[dict] = []

    @property
    def spill_manager(self):
        """Lazily created spill manager (only when a memory budget is set)."""
        if self._spill_manager is None:
            self._spill_manager = SpillManager(self.config.spill_directory)
        return self._spill_manager

    def spill_counters(self) -> dict:
        """Spill totals so far by :data:`~repro.storage.spill.SPILL_COUNTERS`
        key (zeros when nothing spilled)."""
        if self._spill_manager is None:
            return dict.fromkeys(SPILL_COUNTERS, 0)
        return self._spill_manager.counters()

    def cleanup(self) -> None:
        """Remove spill files created during this query. The manager stays
        for :meth:`spill_counters`, which then include what cleanup could
        not delete."""
        if self._spill_manager is not None:
            self._spill_manager.cleanup()

    # ------------------------------------------------------------------
    def next_phase(self) -> None:
        """Advance to the next pipeline phase (a scheduling barrier)."""
        self._phase_counter += 1
        self._phase = f"p{self._phase_counter}"

    def parallel_for(
        self,
        operator: str,
        items: Sequence,
        fn: Callable,
        steps: Optional[Sequence[Tuple[str, bool]]] = None,
    ) -> List:
        """Run one parallel region under the current phase label (a chain
        region with ``steps``: see
        :meth:`~repro.execution.scheduler.RegionScheduler.run_region`)."""
        return self.scheduler.run_region(
            operator, self._phase, items, fn, steps
        )
