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

import itertools
import time
from typing import Any, Dict, Optional

import numpy as np

from .baseline import ColumnarEngine, MonolithicEngine, NaiveRowEngine
from .errors import QueryCancelled, ReproError
from .execution.context import EngineConfig
from .logical import LogicalPlan, explain_plan
from .lolepop.engine import LolepopEngine, QueryResult
from .observability.telemetry import GLOBAL_TELEMETRY, QueryRecord
from .observability.workload import plan_fingerprint
from .sql import bind, parse_sql
from .storage.table import Catalog, Table
from .types import Schema

_ENGINES = {
    "lolepop": LolepopEngine,
    "monolithic": MonolithicEngine,
    "naive": NaiveRowEngine,
    "columnar": ColumnarEngine,
}


def _looks_like_explain(query: str) -> bool:
    """Cheap pre-parse test used to route EXPLAIN around the plan cache."""
    return query.lstrip()[:7].lower() == "explain"


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
        #: keyed on normalized SQL with per-table version validation;
        #: ``plan_cache_size=0`` disables caching entirely (every call
        #: re-parses).
        from .server.cache import PlanCache

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
        self._direct_ids = itertools.count(1)
        if self.plan_cache is not None:
            self.plan_cache.on_evict = self._on_plan_evict
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
        if feedback_dir is None:
            import os

            feedback_dir = os.environ.get("REPRO_FEEDBACK_DIR") or None
        if feedback_dir:
            from .observability.feedback import FeedbackStore

            self.feedback = FeedbackStore(
                feedback_dir, telemetry=self.telemetry
            )
        #: The one cardinality estimator of this database — telemetry's
        #: Q-error tracking, :meth:`estimate`, EXPLAIN ANALYZE, the query
        #: service's admission estimate and the translator's cost-based
        #: decisions all read it, so they agree on every plan. Building it
        #: samples nothing: statistics are collected per table on first
        #: use and invalidated per table version, and the feedback
        #: calibration is a live view over the store.
        from .logical.cardinality import CardinalityEstimator
        from .stats import StatisticsCache

        self.estimator = CardinalityEstimator(
            StatisticsCache(self.catalog),
            calibration=(
                self.feedback.calibration() if self.feedback is not None else None
            ),
        )
        #: fingerprint -> template observation count at the last
        #: drift-triggered replan, so a persistently drifting template does
        #: not discard its plan-cache entry on every query.
        self._replanned: Dict[str, int] = {}

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
        from .types import Schema as _Schema

        if schema is not None and not isinstance(schema, _Schema):
            schema = _Schema.of(*schema.items()) if isinstance(schema, dict) else schema
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
        miss; a hit also carries translated DAG templates the engine clones
        instead of re-translating."""
        if self.plan_cache is None or _looks_like_explain(query):
            return self._build_prepared(query), False
        return self.plan_cache.lookup(
            query, self.catalog, lambda: self._build_prepared(query)
        )

    def _build_prepared(self, query: str):
        from .server.cache import PreparedPlan
        from .sql.ast import ExplainStmt, SelectStmt

        stmt = parse_sql(query)
        if isinstance(stmt, ExplainStmt):
            return PreparedPlan(
                query, stmt, None, self.catalog.version, cacheable=False
            )
        plan = bind(stmt, self.catalog)
        return PreparedPlan(
            query,
            stmt,
            plan,
            self.catalog.version,
            cacheable=isinstance(stmt, SelectStmt),
            table_deps=self._plan_table_deps(plan),
            ddl_version=self.catalog.ddl_version,
        )

    def _plan_table_deps(self, plan):
        """``((table, version), ...)`` for every base table the bound plan
        scans, or ``None`` when a dependency cannot be resolved (→ coarse
        catalog-version validation)."""
        from .logical import Scan

        names: list = []
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                name = node.table_name.lower()
                if name not in names:
                    names.append(name)
            stack.extend(getattr(node, "children", ()))
        try:
            return tuple(
                (name, self.catalog.get(name).version) for name in sorted(names)
            )
        except Exception:  # noqa: BLE001 — unknown table → coarse fallback
            return None

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
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            prepared, cache_hit = self._prepare_cached(query)
            return self.execute_prepared(
                prepared, engine=engine, config=config, plan_cache_hit=cache_hit
            )
        prepare_started = time.perf_counter()
        try:
            prepared, cache_hit = self._prepare_cached(query)
        except Exception as error:
            self._record_parse_error(
                query, engine, error, time.perf_counter() - prepare_started
            )
            raise
        parse_bind_s = time.perf_counter() - prepare_started
        return self.execute_prepared(
            prepared,
            engine=engine,
            config=config,
            plan_cache_hit=cache_hit,
            parse_bind_s=parse_bind_s,
        )

    def execute_prepared(
        self,
        prepared,
        engine: str = "lolepop",
        config: Optional[EngineConfig] = None,
        plan_cache_hit: bool = False,
        parse_bind_s: float = 0.0,
        queue_wait_s: float = 0.0,
    ) -> QueryResult:
        """Execute a :class:`~repro.server.cache.PreparedPlan` (from
        :meth:`prepare` or the plan cache) without re-parsing or
        re-binding. The query service's execution entry point.

        When telemetry is enabled, every non-EXPLAIN execution (including
        failures and cancellations) emits one
        :class:`~repro.observability.telemetry.QueryRecord`; callers that
        already measured parse/bind or queue time pass it through so the
        record's latency breakdown is complete.
        """
        from .sql.ast import ExplainStmt

        if isinstance(prepared.statement, ExplainStmt):
            # EXPLAIN is a diagnostic, not workload: never recorded.
            return self._explain_statement(
                prepared.statement, prepared.sql, config
            )
        if engine not in _ENGINES:
            raise ReproError(
                f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
            )
        run_config = config or self.config
        if (
            engine == "lolepop"
            and self.reuse is not None
            and getattr(run_config, "reuse", None) is None
        ):
            run_config = run_config.clone(reuse=self.reuse)
        if engine == "lolepop":
            runner = LolepopEngine(self.catalog, run_config, self.estimator)
        else:
            runner = _ENGINES[engine](self.catalog, run_config)
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            # Disabled fast path: one branch, no timing, no allocations.
            if engine == "lolepop":
                prepared.executions += 1
                return runner.run(
                    prepared.plan,
                    query=prepared.sql,
                    prepared=prepared if prepared.cacheable else None,
                    plan_cache_hit=plan_cache_hit,
                )
            return runner.run(prepared.plan)
        execute_started = time.perf_counter()
        status, error_text, result = "ok", None, None
        try:
            if engine == "lolepop":
                prepared.executions += 1
                result = runner.run(
                    prepared.plan,
                    query=prepared.sql,
                    prepared=prepared if prepared.cacheable else None,
                    plan_cache_hit=plan_cache_hit,
                )
            else:
                result = runner.run(prepared.plan)
        except QueryCancelled as error:
            status, error_text = "cancelled", str(error)
            raise
        except BaseException as error:  # noqa: BLE001 — recorded, re-raised
            status, error_text = "error", f"{type(error).__name__}: {error}"
            raise
        finally:
            self._record_execution(
                telemetry,
                prepared,
                engine,
                run_config,
                result,
                status,
                error_text,
                plan_cache_hit,
                parse_bind_s,
                time.perf_counter() - execute_started,
                queue_wait_s,
            )
        return result

    # ------------------------------------------------------------------
    # Telemetry capture (see repro.observability.telemetry)
    # ------------------------------------------------------------------
    def _record_execution(
        self,
        telemetry,
        prepared,
        engine: str,
        config: EngineConfig,
        result: Optional[QueryResult],
        status: str,
        error_text: Optional[str],
        plan_cache_hit: bool,
        parse_bind_s: float,
        execute_s: float,
        queue_wait_s: float,
    ) -> None:
        """Build and record the QueryRecord of one execution. Runs in a
        ``finally``; must never raise (it would mask the query's error)."""
        try:
            dags = result.dags if result is not None else []
            spill = getattr(result, "spill", None) or {}
            skew, straggler = self._trace_skew(result)
            record = QueryRecord(
                getattr(config, "query_id", None) or f"d{next(self._direct_ids)}",
                telemetry.truncate_sql(prepared.normalized),
                plan_fingerprint(dags, prepared.normalized, engine),
                engine=engine,
                session_id=getattr(config, "session_id", None) or "-",
                status=status,
                error=error_text,
                rows=len(result.batch) if result is not None else 0,
                plan_cache_hit=plan_cache_hit,
                parse_bind_s=parse_bind_s,
                translate_s=getattr(result, "translate_s", 0.0) or 0.0,
                execute_s=execute_s,
                total_s=parse_bind_s + execute_s,
                queue_wait_s=queue_wait_s,
                spill_bytes_written=spill.get("bytes_written", 0),
                spill_bytes_read=spill.get("bytes_read", 0),
                max_q_error=self._max_q_error(prepared, result),
                morsel_skew=skew,
                straggler=straggler,
            )
            telemetry.record_query(record)
            if (
                self.feedback is not None
                and status == "ok"
                and result is not None
                and prepared.plan is not None
            ):
                self._record_feedback(record, prepared, result)
        except Exception:  # noqa: BLE001 — telemetry never takes queries down
            pass

    def _record_parse_error(
        self, query: str, engine: str, error: BaseException, elapsed_s: float
    ) -> None:
        """Record a statement that failed before it had a plan (parse/bind
        error): the fingerprint falls back to the normalized SQL text."""
        from .server.cache import normalize_sql

        try:
            telemetry = self.telemetry
            normalized = normalize_sql(query)
            telemetry.record_query(
                QueryRecord(
                    f"d{next(self._direct_ids)}",
                    telemetry.truncate_sql(normalized),
                    plan_fingerprint([], normalized, engine),
                    engine=engine,
                    status="error",
                    error=f"{type(error).__name__}: {error}",
                    parse_bind_s=elapsed_s,
                    total_s=elapsed_s,
                )
            )
        except Exception:  # noqa: BLE001
            pass

    @staticmethod
    def _trace_skew(result):
        """(worst parallel-phase morsel skew, its ``operator/phase``) from
        a collected execution trace, or ``(None, None)`` — traces are off
        in the serving default, so this is usually one attribute check."""
        trace = getattr(result, "trace", None) if result is not None else None
        if trace is None or not trace.records:
            return None, None
        from .observability.analyze import morsel_skew

        for entry in morsel_skew(trace):
            if entry["items"] >= 2:
                return entry["skew"], f"{entry['operator']}/{entry['phase']}"
        return None, None

    def _record_feedback(self, record, prepared, result) -> None:
        """Fold this execution's actuals into the feedback store and run
        the drift→replan check — the loop-closing half of the Q-error
        telemetry. Only reached on the telemetry-enabled path (the
        disabled path stays allocation-free)."""
        from .observability.feedback import (
            profile_observations,
            root_observation,
        )

        if result.profile is not None and result.dags:
            observations = profile_observations(result.profile, self.estimator)
        else:
            est = prepared.est_rows
            if est is not None and est < 0.0:
                est = None  # estimation-failure sentinel
            observations = [
                root_observation(prepared.plan, est, record.rows)
            ]
        self.feedback.observe(record.fingerprint, record.sql, observations)
        self._maybe_replan(record.fingerprint, prepared)

    #: A template must drift this much (recent EWMA Q-error over baseline
    #: mean) before its cached plan is discarded, and re-discards wait for
    #: this many further observations — mirroring
    #: ``WorkloadStats.drifting_templates`` so the replan loop and the
    #: report flag the same templates.
    REPLAN_DRIFT_RATIO = 2.0
    REPLAN_INTERVAL = 8

    def _maybe_replan(self, fingerprint: str, prepared) -> None:
        """If the workload profiler says this template's estimates have
        drifted, invalidate its cached plan and estimate so the next
        execution re-plans against the (now feedback-calibrated)
        estimator; emits a ``feedback.replan`` breadcrumb."""
        template = self.telemetry.workload.get(fingerprint)
        if template is None:
            return
        ratio = template.drift_ratio()
        if ratio is None or ratio < self.REPLAN_DRIFT_RATIO:
            return
        last = self._replanned.get(fingerprint)
        if last is not None and template.count - last < self.REPLAN_INTERVAL:
            return
        self._replanned[fingerprint] = template.count
        prepared.est_rows = None
        prepared.dag_templates.clear()
        if self.plan_cache is not None:
            self.plan_cache.discard(prepared.normalized)
        self.telemetry.event(
            "feedback.replan",
            fingerprint=fingerprint,
            drift_ratio=ratio,
            sql=self.telemetry.truncate_sql(prepared.normalized),
        )

    def _max_q_error(self, prepared, result) -> Optional[float]:
        """Per-query max Q-error, always on: node-level (same number as the
        EXPLAIN ANALYZE summary) when a profile was collected, else the
        root-level Q-error against a cached per-plan estimate — one
        estimator call per *prepared plan*, not per execution."""
        if result is None or prepared.plan is None:
            return None
        try:
            from .observability.analyze import profile_max_q_error, q_error

            if result.profile is not None and result.dags:
                worst = profile_max_q_error(
                    result.profile, self.estimator
                )
                if worst is not None:
                    return worst
            if prepared.est_rows is None:
                try:
                    prepared.est_rows = max(
                        0.0,
                        float(self.estimator.rows(prepared.plan)),
                    )
                except Exception:  # noqa: BLE001 — remember the failure
                    prepared.est_rows = -1.0
            if prepared.est_rows >= 0.0:
                return q_error(prepared.est_rows, len(result.batch))
        except Exception:  # noqa: BLE001
            return None
        return None

    def _on_plan_evict(self, key, entry) -> None:
        """Plan-cache capacity eviction → flight-recorder breadcrumb."""
        self.telemetry.event(
            "cache.evict",
            cache="plan",
            sql=self.telemetry.truncate_sql(key),
            catalog_version=getattr(entry, "catalog_version", None),
        )

    def _explain_statement(self, stmt, query: str, config=None) -> QueryResult:
        from .storage.batch import Batch
        from .types import Schema

        plan = bind(stmt.select, self.catalog)
        trace = None
        dags: list = []
        profile = None
        serial = simulated = 0.0
        if stmt.mode == "lolepop":
            text = LolepopEngine(self.catalog, self.config).explain(plan)
        elif stmt.mode == "analyze":
            from .observability import render_analyze

            run_config = (config or self.config).clone(
                collect_metrics=True, collect_trace=True
            )
            engine = LolepopEngine(self.catalog, run_config)
            result = engine.run(plan, query=query)
            text = render_analyze(
                result, self.catalog, run_config,
                estimator=self.estimator,
            )
            trace = result.trace
            dags = result.dags
            profile = result.profile
            serial = result.serial_time
            simulated = result.simulated_time
        else:
            text = explain_plan(plan)
        schema = Schema.of(("plan", "string"))
        batch = Batch.from_pydict(schema, {"plan": text.splitlines()})
        return QueryResult(batch, serial, simulated, trace, dags, profile=profile)

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
        engine = LolepopEngine(self.catalog, self.config)
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
        dag = translate_statistics(region, lambda p: [], config)
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
