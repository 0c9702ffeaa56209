"""The LOLEPOP query engine (the paper's Umbra-integrated approach).

Executes bound logical plans by running the relational fragment through
:class:`~repro.relational.RelationalExecutor` and translating every
statistics region (Aggregate / Window / Sort / Limit) into a LOLEPOP DAG
via :func:`~repro.lolepop.translate.translate_statistics`. Nested regions
(aggregates over aggregating subqueries) recurse naturally: a region's
SOURCE thunk re-enters the engine.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..errors import ExecutionError
from ..execution.context import EngineConfig, ExecutionContext
from ..execution.trace import ExecutionTrace
from ..logical import Aggregate, Limit, LogicalPlan, Sort, Window
from ..logical.cardinality import CardinalityEstimator
from ..observability.provenance import RewriteEvent
from ..relational.executor import RelationalExecutor
from ..stats import StatisticsCache
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..storage.table import Catalog
from .base import Dag
from .translate import translate_statistics


class QueryResult:
    """The outcome of one query execution."""

    def __init__(
        self,
        batch: Batch,
        serial_time: float,
        simulated_time: float,
        trace: Optional[ExecutionTrace],
        dags: List[Dag],
        spill=None,
        translate_s: float = 0.0,
        query: Optional[str] = None,
        config: Optional[EngineConfig] = None,
        rewrites: Sequence[RewriteEvent] = (),
        joins: Sequence[dict] = (),
    ):
        #: All output rows as one batch.
        self.batch = batch
        #: Total measured single-threaded work (seconds).
        self.serial_time = serial_time
        #: Parallel wall time at the configured thread count (seconds): the
        #: list-scheduled makespan in simulated mode, the *measured* sum of
        #: region spans in parallel mode.
        self.simulated_time = simulated_time
        #: The span tree under ``collect_trace=True``, else ``None``: a traced
        #: run is the profile (:func:`~repro.observability.metrics.profile_dict`).
        self.trace = trace
        #: Every LOLEPOP DAG built during execution, in construction order:
        #: a region's DAG is appended before any nested region its SOURCE
        #: thunk triggers, so the query's top region always comes first and
        #: nested regions follow in the order execution reached them.
        self.dags = dags
        #: Spill counters dict (the keys of
        #: :data:`~repro.storage.spill.SPILL_COUNTERS`) for LOLEPOP runs —
        #: present without a trace so the telemetry layer can record spill
        #: per query; ``None`` for the baseline engines (they never spill).
        self.spill = spill
        #: Seconds spent translating statistics regions into LOLEPOP DAGs
        #: during this run (~0 on a plan-cache template hit). Part of the
        #: telemetry latency breakdown.
        self.translate_s = translate_s
        #: The statement text and the config the LOLEPOP run executed under
        #: (``None`` for the baseline engines).
        self.query = query
        self.config = config
        #: The rewrite log: the logical plan's events, then each DAG's.
        self.rewrites = rewrites
        #: One line per executed join under ``collect_trace``
        #: (:attr:`~repro.execution.context.ExecutionContext.joins`).
        self.joins = joins

    @property
    def schema(self):
        return self.batch.schema

    def rows(self):
        return list(self.batch.rows())

    def to_pydict(self):
        return self.batch.to_pydict()

    def operator_summary(self):
        """Per-operator (total work seconds, work-item count) from the
        execution trace; requires ``collect_trace=True`` in the config. A
        step of a work item counts once however many pieces the simulated
        scheduler split it into.

        Every DAG node is listed, including operators that produced no
        work items (e.g. an elided SORT) — those appear with zero counts
        so ANALYZE-style output covers the whole DAG.
        """
        if self.trace is None:
            raise ExecutionError(
                "no trace collected; run with EngineConfig(collect_trace=True)"
            )
        out = {}
        for dag in self.dags:
            for name in dag.operator_names():
                out.setdefault(name.lower(), (0.0, 0))
        # A split step is several units of one item: count each item once
        # per step of the operator in its region (an item runs all of them,
        # which share the operator's row threshold, or none).
        seen = set()
        for region in self.trace.regions:
            steps = region.name.split("+")
            for unit in region.children:
                work, count = out.get(unit.name, (0.0, 0))
                item = (unit.name, id(region), unit.item)
                if item not in seen:
                    seen.add(item)
                    count += steps.count(unit.name)
                out[unit.name] = (work + unit.duration, count)
        return out

    def pretty(self, max_rows=50) -> str:
        """The result as an aligned ASCII table."""
        from ..format import format_table

        return format_table(self.schema.names(), self.rows(), max_rows)

    def __len__(self) -> int:
        return len(self.batch)


def statistics_region(plan: LogicalPlan) -> Optional[LogicalPlan]:
    """The topmost statistics region of ``plan`` (the subtree the LOLEPOP
    translator handles), unwrapping leading Project/Filter nodes; ``None``
    when the query has no Aggregate/Window/Sort/Limit region. Shared by
    :meth:`LolepopEngine.explain` and ``Database.verify_plan``."""
    from ..logical import Filter, Project

    node = plan
    while isinstance(node, (Project, Filter)):
        node = node.children[0]
    if isinstance(node, (Aggregate, Window, Sort, Limit)):
        return node
    return None


class LolepopEngine:
    """Executes logical plans using LOLEPOP DAGs for all statistics; its
    translator prices §3.3's DISTINCT lowering with ``estimator``."""

    name = "lolepop"

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[EngineConfig] = None,
        estimator=None,
    ):
        self.catalog = catalog
        self.config = config or EngineConfig()
        #: :class:`~repro.logical.cardinality.CardinalityEstimator` the
        #: translator prices the §3.3 DISTINCT lowering with. ``Database``
        #: passes its own, so every path that translates a statement (run,
        #: EXPLAIN, EXPLAIN ANALYZE, ``.verify``) builds the same DAG;
        #: without one the engine samples the catalog itself.
        if estimator is None:
            estimator = CardinalityEstimator(StatisticsCache(catalog))
        self.estimator = estimator

    # ------------------------------------------------------------------
    def run(
        self,
        plan: LogicalPlan,
        query: Optional[str] = None,
        prepared=None,
        trace: Optional[ExecutionTrace] = None,
    ) -> QueryResult:
        """Execute ``plan``. When ``prepared`` (a plan-cache entry) is given,
        translated DAG templates are reused across executions: each
        statistics region clones its cached template instead of re-running
        the translator, and a freshly translated region stores its template
        back on the entry. ``trace`` is the statement's span tree, when the
        caller opened one: what this run records (``translate`` stages;
        nodes, regions and items under ``collect_trace``) goes beneath its
        open span, the caller's ``execute`` stage."""
        runner = _Runner(
            self.catalog, self.config, self.estimator,
            prepared=prepared, trace=trace,
        )
        try:
            batches = runner.execute_stream(plan)
            batch = (
                Batch.concat(batches) if batches else Batch.empty(plan.schema)
            )
        finally:
            runner.ctx.cleanup()
            if trace is None and runner.ctx.trace is not None:
                runner.ctx.trace.root.close()  # the bare root is this run's
        scheduler = runner.ctx.scheduler
        return QueryResult(
            batch,
            scheduler.serial_time,
            scheduler.sim_time,
            runner.ctx.trace if self.config.collect_trace else None,
            runner.dags,
            spill=runner.ctx.spill_counters(),
            translate_s=runner.translate_time,
            query=query,
            config=self.config,
            rewrites=[*plan.rewrites, *(e for dag in runner.dags for e in dag.rewrites)],
            joins=runner.ctx.joins,
        )

    def explain(self, plan: LogicalPlan) -> str:
        """Translate the topmost statistics region without executing it and
        render the DAG (golden-test hook)."""
        node = statistics_region(plan)
        if node is None:
            return "(no statistics region)"
        dag = translate_statistics(node, lambda p: [], self.config, self.estimator)
        return dag.explain()


class _Runner:
    """Per-query execution state."""

    def __init__(
        self, catalog: Catalog, config: EngineConfig, estimator,
        prepared=None, trace: Optional[ExecutionTrace] = None,
    ):
        self.catalog = catalog
        self.ctx = ExecutionContext(config, trace)
        self.dags: List[Dag] = []
        #: Seconds spent in translate_statistics across all regions of this
        #: run (zero when every region came from a cached DAG template).
        self.translate_time = 0.0
        self.estimator = estimator
        #: Plan-cache entry whose ``dag_templates`` this run reads/extends;
        #: ``None`` when the query did not come through the cache.
        self._prepared = prepared
        self._fingerprint = (
            config.translation_fingerprint() if prepared is not None else None
        )
        #: Statistics regions are encountered in a deterministic order for a
        #: given (plan, config); this counter is the region's cache key.
        self._region_seq = 0
        self._relational = RelationalExecutor(
            catalog, self.ctx, stats_handler=self._handle_statistics
        )

    def execute_stream(self, plan: LogicalPlan) -> List[Batch]:
        return self._relational.execute(plan)

    def _handle_statistics(self, plan: LogicalPlan) -> List[Batch]:
        dag = self._cached_dag(plan)
        if dag is None:
            started = time.perf_counter()
            dag = translate_statistics(
                plan, self.execute_stream, self.ctx.config, self.estimator
            )
            ended = time.perf_counter()
            self.translate_time += ended - started
            if self.ctx.trace is not None:
                self.ctx.trace.add("stage", "translate", started, ended)
            if self._prepared is not None:
                # Store a pristine template (cloned before execution can
                # mutate node state) for future runs of this statement;
                # strict mode verifies the template at insert time.
                self._prepared.store_template(
                    (self._fingerprint, self._region_seq - 1),
                    dag,
                    self.ctx.config,
                )
        self.dags.append(dag)
        result = dag.execute(self.ctx)
        if isinstance(result, TupleBuffer):
            return result.scan_batches()
        return result

    def _cached_dag(self, plan: LogicalPlan) -> Optional[Dag]:
        """Clone of the cached DAG template for this region, or ``None``.

        The template names nodes of the plan-cache entry's plan; a variant
        for other literals (:meth:`~repro.server.cache.PreparedPlan.bind`)
        maps them onto its own copies. The template's region, so mapped,
        must be the *same object* as ``plan`` — a mismatch means it belongs
        to a different region shape and must not be reused. Under reuse it
        must be the template's own region: capture specs and view choices
        name the plan they were made for."""
        if self._prepared is None:
            return None
        key = (self._fingerprint, self._region_seq)
        self._region_seq += 1
        template = self._prepared.dag_templates.get(key)
        if template is None:
            return None
        region = self._prepared.rebased(template.region_plan)
        if region is not plan or (
            self.ctx.config.reuse is not None and region is not template.region_plan
        ):
            return None
        from .base import SourceOp

        dag = template.clone(self._prepared.rebased)
        for node in dag.nodes:
            if isinstance(node, SourceOp):
                node.rebind(self.execute_stream)
        if self.ctx.config.verify_plans == "strict":
            from .verify import verify_dag

            verify_dag(dag, context="plan-cache hit (cloned template)")
        return dag
