"""Public API: the :class:`Database` facade.

Example::

    from repro import Database

    db = Database(num_threads=4)
    db.create_table("r", {"k": "int64", "v": "float64"})
    db.insert("r", {"k": [1, 1, 2], "v": [0.5, 1.5, 9.0]})
    result = db.sql("SELECT k, sum(v), median(v) FROM r GROUP BY k")
    print(result.rows())
    print(db.explain("SELECT k, median(v) FROM r GROUP BY k"))
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Optional

import numpy as np

from .baseline import ColumnarEngine, MonolithicEngine, NaiveRowEngine
from .errors import ReproError
from .execution.context import EngineConfig
from .execution.trace import ExecutionTrace
from .logical import LogicalPlan, explain_plan
from .logical.cardinality import CardinalityEstimator
from .lolepop.engine import LolepopEngine, QueryResult
from .observability.telemetry import GLOBAL_TELEMETRY
from .server.cache import PlanCache, PreparedPlan, table_deps
from .sql import bind, parse_sql
from .sql.ast import ExplainStmt
from .sql.lexer import fill, skeleton
from .stats import StatisticsCache
from .storage.batch import Batch
from .storage.table import Catalog, Table
from .types import Schema

#: Stands in for the ``execute`` stage of a statement nobody is tracing.
_NO_SPAN = contextlib.nullcontext()

_ENGINES = {
    "lolepop": LolepopEngine,
    "monolithic": MonolithicEngine,
    "naive": NaiveRowEngine,
    "columnar": ColumnarEngine,
}


class Database:
    """A catalog plus query entry points for all four engines."""

    def __init__(
        self,
        num_threads: int = 1,
        config: Optional[EngineConfig] = None,
        execution_mode: str = "simulated",
        plan_cache_size: int = 256,
        telemetry=None,
        reuse=None,
        feedback_dir: Optional[str] = None,
    ):
        self.catalog = Catalog()
        self.config = config or EngineConfig(
            num_threads=num_threads, execution_mode=execution_mode
        )
        #: LRU of prepared (parsed + bound + translated-template) plans,
        #: keyed on the statement skeleton and pinned literals, current
        #: until a table they read is stale (:func:`repro.stats.is_stale`);
        #: ``plan_cache_size=0`` disables caching entirely (every call
        #: re-parses).
        self.plan_cache = (
            PlanCache(plan_cache_size) if plan_cache_size else None
        )
        #: Service telemetry sink (see
        #: :mod:`repro.observability.telemetry`): every executed statement
        #: emits one :class:`~repro.observability.telemetry.QueryRecord`
        #: into it. Defaults to the process-wide ``GLOBAL_TELEMETRY``; pass
        #: a private :class:`~repro.observability.telemetry.Telemetry` to
        #: isolate, or one with ``enabled=False`` to pay a single branch
        #: per query.
        self.telemetry = telemetry if telemetry is not None else GLOBAL_TELEMETRY
        if self.plan_cache is not None:
            # Capacity eviction → flight-recorder breadcrumb.
            self.plan_cache.on_evict = lambda key, entry: self.telemetry.event(
                "cache.evict",
                cache="plan",
                sql=self.telemetry.truncate_sql(entry.normalized),
            )
        #: Cross-query materialization manager (``src/repro/reuse``). Off by
        #: default; pass ``reuse=True`` for defaults or a
        #: :class:`~repro.reuse.ReuseConfig` to tune. When present it is
        #: injected into every LOLEPOP execution config so the translator
        #: can consult it.
        self.reuse = None
        if reuse:
            from .reuse import MaterializationManager, ReuseConfig

            reuse_config = reuse if isinstance(reuse, ReuseConfig) else ReuseConfig()
            self.reuse = MaterializationManager(
                self.catalog, reuse_config, telemetry=self.telemetry
            )
            self.telemetry.attach_reuse(self.reuse.stats)
        #: Persistent cardinality-feedback store
        #: (:mod:`repro.observability.feedback`). Enabled by passing
        #: ``feedback_dir`` or setting ``REPRO_FEEDBACK_DIR``; loads prior
        #: actuals on start (they calibrate the telemetry estimator) and
        #: records new ones on every telemetry-enabled execution.
        self.feedback = None
        feedback_dir = feedback_dir or os.environ.get("REPRO_FEEDBACK_DIR")
        if feedback_dir:
            from .observability.feedback import FeedbackStore

            self.feedback = FeedbackStore(
                feedback_dir, telemetry=self.telemetry
            )
        #: The one cardinality estimator of this database — telemetry's
        #: Q-error tracking, :meth:`estimate`, EXPLAIN ANALYZE, the query
        #: service's admission estimate and the translator's DISTINCT
        #: pricing on every path that translates (execution, EXPLAIN
        #: LOLEPOP, EXPLAIN ANALYZE, :meth:`explain_lolepop`,
        #: :meth:`verify_plan`) all read it, so they agree on every plan.
        #: Building it samples nothing: statistics are collected per table
        #: on first use and re-collected once that table is stale (the plan
        #: cache's rule too), and the feedback store it consults is live.
        self.estimator = CardinalityEstimator(
            StatisticsCache(self.catalog), calibration=self.feedback
        )

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema) -> Table:
        """Create a table; ``schema`` is a Schema, a dict of name→type, or a
        sequence of (name, type) pairs."""
        return self.catalog.create_table(name, schema)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    def insert(self, name: str, data: Dict[str, Any]) -> int:
        """Insert rows given as ``{column: values}``. Numpy arrays use the
        no-null fast path; Python lists accept ``None`` for NULL."""
        table = self.catalog.get(name)
        if all(isinstance(v, np.ndarray) for v in data.values()):
            return table.insert_arrays(data)
        return table.insert_pydict(data)

    def load_csv(
        self,
        name: str,
        path: str,
        schema=None,
        delimiter: str = ",",
        header: bool = True,
    ) -> Table:
        """Create table ``name`` from a CSV file; the schema is inferred
        (INT64 → FLOAT64 → DATE → BOOL → STRING) unless given."""
        from .io_csv import read_csv

        if isinstance(schema, dict):
            schema = Schema.of(*schema.items())
        inferred, data = read_csv(path, schema, delimiter, header)
        table = self.catalog.create_table(name, inferred)
        if data and len(next(iter(data.values()))) > 0:
            table.insert_pydict(data)
        return table

    def create_table_as(
        self, name: str, query: str, engine: str = "lolepop"
    ) -> Table:
        """CREATE TABLE AS: materialize a query's result as a new table."""
        result = self.sql(query, engine=engine)
        table = self.catalog.create_table(name, result.schema)
        if len(result.batch):
            table.insert_batch(result.batch)
        return table

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def plan(self, query: str) -> LogicalPlan:
        """Parse and bind ``query``, returning the logical plan."""
        return bind(parse_sql(query), self.catalog)

    def prepare(self, query: str):
        """Parse and bind ``query`` once, returning a
        :class:`~repro.server.cache.PreparedPlan` that repeated executions
        (via the plan cache or an explicit ``db.sql(prepared.sql)``) reuse.
        EXPLAIN statements are never cached (they are diagnostics)."""
        prepared, _ = self._prepare_cached(query)
        return prepared

    def _prepare_cached(self, query: str):
        """(prepared plan, was a plan-cache hit). Parse/bind run only on a
        miss; a hit — any statement of a cached skeleton with the entry's
        pinned literals — also carries translated DAG templates the engine
        clones instead of re-translating."""
        # EXPLAIN is routed around the cache by a cheap pre-parse test.
        if self.plan_cache is None or query.lstrip()[:7].lower() == "explain":
            return self._build_prepared(query, skeleton(query)), False
        return self.plan_cache.lookup(
            query, self.catalog, lambda shape: self._build_prepared(query, shape)
        )

    def _build_prepared(self, query: str, shape) -> PreparedPlan:
        slots = shape[1] if shape is not None else ()
        stmt = parse_sql(query, slots)
        pinned = set() if slots else None
        plan = (
            None if isinstance(stmt, ExplainStmt)
            else bind(stmt, self.catalog, pinned)
        )
        return PreparedPlan(
            query,
            stmt,
            plan,
            table_deps(plan, self.catalog),
            self.catalog.ddl_version,
            cacheable=plan is not None,
            shape=shape,
            pinned=pinned or (),
            reuse=self.reuse is not None,
        )

    def prepare_timed(
        self,
        query: str,
        engine: str = "lolepop",
        query_id: Optional[str] = None,
        session_id: Optional[str] = None,
        config: Optional[EngineConfig] = None,
    ):
        """(prepared plan, plan-cache hit, statement span tree) — the front
        half of :meth:`sql`, shared with the query service. The statement's
        span tree (root: ids, engine, cache flags; a ``parse_bind`` stage
        around the lookup) is opened when telemetry is enabled or ``config``
        collects a trace, else it is ``None``. A statement that
        fails to parse or bind is recorded here, before the error
        propagates: it will never reach :meth:`execute_prepared`."""
        config = config or self.config
        if not (self.telemetry.enabled or config.collect_trace):
            return (*self._prepare_cached(query), None)
        root = self.telemetry.open_statement(query, engine, query_id, session_id)
        trace = ExecutionTrace(root)
        try:
            with trace.enter("stage", "parse_bind"):
                prepared, cache_hit = self._prepare_cached(query)
        except Exception as error:
            if self.telemetry.enabled:
                shape = skeleton(query)
                root.name = fill(*shape) if shape is not None else query.strip()
                self.telemetry.record_execution(root, error=error)
            raise
        root.name = prepared.normalized
        root.attrs["plan_cache_hit"] = cache_hit
        return prepared, cache_hit, trace

    def sql(
        self,
        query: str,
        engine: str = "lolepop",
        config: Optional[EngineConfig] = None,
    ) -> QueryResult:
        """Execute ``query`` on the chosen engine ('lolepop', 'monolithic',
        'naive', or 'columnar').

        ``EXPLAIN <select>`` returns the logical plan as rows;
        ``EXPLAIN LOLEPOP <select>`` returns the LOLEPOP DAG;
        ``EXPLAIN ANALYZE <select>`` executes the query and returns the DAG
        annotated with actual rows, estimates, and per-operator time."""
        prepared, _, trace = self.prepare_timed(query, engine, config=config)
        return self.execute_prepared(prepared, engine=engine, config=config, trace=trace)

    def run_config(
        self, engine: str, config: Optional[EngineConfig] = None
    ) -> EngineConfig:
        """The config a statement on ``engine`` actually runs under:
        ``config`` (default: the database's) with the materialization
        manager injected for LOLEPOP runs. Idempotent."""
        config = config or self.config
        if engine == "lolepop" and self.reuse is not None and config.reuse is None:
            config = config.clone(reuse=self.reuse)
        return config

    def execute_prepared(
        self,
        prepared,
        engine: str = "lolepop",
        config: Optional[EngineConfig] = None,
        trace: Optional[ExecutionTrace] = None,
    ) -> QueryResult:
        """Execute a :class:`~repro.server.cache.PreparedPlan` (from
        :meth:`prepare` or the plan cache) without re-parsing or
        re-binding. The query service's execution entry point.

        ``trace`` is the statement's span tree from :meth:`prepare_timed`
        (the service has added ``admission`` and ``queue`` stages); without
        one, telemetry being enabled, the root is opened here. Execution
        runs inside an ``execute`` stage beneath the root, and when
        telemetry is enabled every non-EXPLAIN execution (failures and
        cancellations too) closes the root into one
        :class:`~repro.observability.telemetry.QueryRecord`.
        """
        if isinstance(prepared.statement, ExplainStmt):
            # EXPLAIN is a diagnostic, not workload: never recorded.
            return self._explain_statement(
                prepared.statement, prepared.sql, config
            )
        if engine not in _ENGINES:
            raise ReproError(
                f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
            )
        run_config = self.run_config(engine, config)
        result = error = None
        if trace is None and self.telemetry.enabled:
            trace = ExecutionTrace(self.telemetry.open_statement(prepared.normalized, engine))
        try:
            with trace.enter("stage", "execute") if trace is not None else _NO_SPAN:
                if engine == "lolepop":
                    result = LolepopEngine(self.catalog, run_config, self.estimator).run(
                        prepared.plan,
                        query=prepared.sql,
                        prepared=prepared if prepared.cacheable else None,
                        trace=trace,
                    )
                else:
                    result = _ENGINES[engine](self.catalog, run_config).run(prepared.plan)
            return result
        except BaseException as raised:  # recorded below, re-raised
            error = raised
            raise
        finally:
            if trace is not None and self.telemetry.enabled:
                replan = self.telemetry.record_execution(
                    trace.root, prepared, run_config, result, error, self.estimator, self.feedback
                )
                if replan and self.plan_cache is not None:
                    self.plan_cache.discard(prepared.key)
            elif trace is not None:
                trace.root.close()
            error = None  # do not keep the traceback's frame cycle alive

    def _explain_statement(self, stmt, query: str, config=None) -> QueryResult:
        plan = bind(stmt.select, self.catalog)
        run = None
        if stmt.mode == "lolepop":
            engine = LolepopEngine(
                self.catalog, self.run_config("lolepop", config), self.estimator
            )
            text = engine.explain(plan)
        elif stmt.mode == "analyze":
            from .observability import render_analyze

            run_config = (config or self.config).clone(collect_trace=True)
            run = LolepopEngine(self.catalog, run_config, self.estimator).run(
                plan, query=query
            )
            text = render_analyze(run, run_config, self.estimator)
        else:
            text = explain_plan(plan)
        batch = Batch.from_pydict(
            Schema.of(("plan", "string")), {"plan": text.splitlines()}
        )
        if run is None:
            return QueryResult(batch, 0.0, 0.0, None, [])
        run.batch = batch  # the report, with the run's timings and span tree
        return run

    def explain_analyze(
        self, query: str, config: Optional[EngineConfig] = None
    ) -> str:
        """Execute ``query`` and return the annotated-DAG report as text."""
        result = self.sql(f"EXPLAIN ANALYZE {query}", config=config)
        return "\n".join(result.batch.to_pydict()["plan"])

    def explain(self, query: str) -> str:
        """The bound logical plan as ASCII."""
        return explain_plan(self.plan(query))

    def estimate(self, query: str) -> float:
        """Estimated output rows (sampled statistics + System-R-style
        selectivity rules; see repro.logical.cardinality). When a feedback
        store is attached, observed actuals for recognized plan shapes
        override the model — the same calibrated estimator telemetry's
        Q-error tracking uses."""
        return self.estimator.rows(self.plan(query))

    def explain_lolepop(self, query: str) -> str:
        """The LOLEPOP DAG of the query's top statistics region."""
        engine = LolepopEngine(self.catalog, self.config, self.estimator)
        return engine.explain(self.plan(query))

    def verify_plan(self, query: str) -> str:
        """Statically verify the LOLEPOP DAG of the query's top statistics
        region and return a report: the annotated DAG plus either ``plan
        verified: ok`` or every verifier diagnostic. Never executes the
        query (shell ``.verify`` command)."""
        from .lolepop.engine import statistics_region
        from .lolepop.translate import translate_statistics
        from .lolepop.verify import check_dag

        region = statistics_region(self.plan(query))
        if region is None:
            return "(no statistics region — nothing for the verifier to check)"
        # Translation would already raise under verify_plans != "off"; run
        # it unverified here so .verify can render the diagnostics itself.
        config = self.config.clone(verify_plans="off")
        dag = translate_statistics(region, lambda p: [], config, self.estimator)
        diagnostics, _ = check_dag(dag, require_rebindable=True)
        lines = [dag.explain(), ""]
        if diagnostics:
            ids = {id(n): i for i, n in enumerate(dag.topological_order())}
            lines.append(f"plan verification failed: {len(diagnostics)} diagnostic(s)")
            lines.extend("  " + d.render(ids) for d in diagnostics)
        else:
            lines.append(
                "plan verified: ok (structure, physical properties, "
                "buffer-race freedom, rebindable sources)"
            )
        return "\n".join(lines)
