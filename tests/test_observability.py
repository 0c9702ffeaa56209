"""Metrics, per-operator stats, EXPLAIN ANALYZE, and Chrome-trace export."""

import json
import random

import pytest

from repro import Database
from repro.errors import ReproError
from repro.execution.context import EngineConfig
from repro.execution.trace import ExecutionTrace, TraceRecord
from repro.observability import (
    GLOBAL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OperatorStats,
    QueryProfile,
    chrome_trace_events,
    validate_trace_events,
    write_chrome_trace,
)
from repro.observability.analyze import q_error
from repro.sql import parse_sql
from repro.sql.ast import ExplainStmt

#: The acceptance query: grouping sets + window + DISTINCT (the DISTINCT
#: aggregate lives in a nested region — combining it with grouping sets in
#: one region is unsupported by design).
ACCEPTANCE_SQL = (
    "SELECT k, g, sum(rn), count(*) FROM ("
    "  SELECT k, g, row_number() OVER (PARTITION BY k ORDER BY v) AS rn, v"
    "  FROM (SELECT k, g, count(DISTINCT v) AS v FROM r GROUP BY k, g) AS d"
    ") AS w GROUP BY GROUPING SETS ((k, g), (k), ())"
)


@pytest.fixture
def db():
    database = Database(num_threads=4)
    database.create_table(
        "r", {"k": "int64", "g": "int64", "v": "float64"}
    )
    rng = random.Random(7)
    n = 2000
    database.insert(
        "r",
        {
            "k": [rng.randint(0, 5) for _ in range(n)],
            "g": [rng.randint(0, 3) for _ in range(n)],
            "v": [rng.random() for _ in range(n)],
        },
    )
    return database


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------


class TestMetricsPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge(self):
        gauge = Gauge()
        gauge.set(4)
        gauge.set(2)
        assert gauge.value == 2.0

    def test_histogram(self):
        hist = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.total == 5
        assert hist.mean == pytest.approx(56.05 / 5)
        assert hist.counts == [1, 2, 1, 1]
        # Interpolated within the (0.1, 1.0] bucket: target rank 2.5 of 5,
        # 1 observation below the bucket, 2 inside -> 0.1 + 0.75 * 0.9.
        assert hist.quantile(0.5) == pytest.approx(0.775)
        snapshot = hist.to_dict()
        assert snapshot["total"] == 5 and snapshot["overflow"] == 1

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0 and hist.quantile(0.9) == 0.0

    def test_registry_reuses_instances(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.counter("a").inc(3)
        assert registry.snapshot()["a"] == 3.0

    def test_registry_type_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_registry_reset(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.snapshot() == {}


class TestOperatorStats:
    def test_batch_list_accounting(self, db):
        from repro.storage.batch import Batch
        from repro.types import Schema

        schema = Schema.of(("a", "int64"))
        batches = [
            Batch.from_pydict(schema, {"a": [1, 2, 3]}),
            Batch.from_pydict(schema, {"a": [4]}),
        ]
        stats = OperatorStats()
        stats.add_input(batches)
        stats.add_output(batches[:1])
        assert stats.rows_in == 4 and stats.batches_in == 2
        assert stats.rows_out == 3 and stats.batches_out == 1

    def test_to_dict_includes_extra(self):
        stats = OperatorStats()
        stats.extra["mode"] = "inplace"
        payload = stats.to_dict()
        assert payload["rows_out"] == 0
        assert payload["extra"] == {"mode": "inplace"}


# ----------------------------------------------------------------------
# Query profiles
# ----------------------------------------------------------------------


class TestQueryProfile:
    def test_off_by_default(self, db):
        result = db.sql("SELECT k, sum(v) FROM r GROUP BY k")
        assert result.profile is None
        for dag in result.dags:
            assert all(n.stats is None for n in dag.topological_order())

    def test_profile_collection(self, db):
        config = EngineConfig(num_threads=4, collect_metrics=True)
        result = db.sql("SELECT k, sum(v) FROM r GROUP BY k", config=config)
        profile = result.profile
        assert isinstance(profile, QueryProfile)
        assert profile.num_threads == 4
        assert profile.serial_time > 0 and profile.makespan > 0
        stats = profile.operator_stats()
        assert stats, "every DAG node should carry stats"
        names = [name for _, _, name, _, _ in stats]
        assert "HASHAGG" in names and "SCAN" in names
        scan = next(s for _, _, n, _, s in stats if n == "SCAN")
        assert scan.rows_out == len(result)
        assert profile.total_operator_time() > 0

    def test_profile_to_dict_round_trips(self, db):
        config = EngineConfig(
            num_threads=2, collect_metrics=True, collect_trace=True
        )
        result = db.sql(
            "SELECT k, median(v) FROM r GROUP BY k", config=config
        )
        payload = result.profile.to_dict(trace=result.trace)
        decoded = json.loads(json.dumps(payload))
        assert decoded["num_threads"] == 2
        assert decoded["dags"] and decoded["dags"][0]["operators"]
        assert decoded["trace_events"]
        validate_trace_events(decoded["trace_events"])

    def test_global_metrics_fed(self, db):
        before = GLOBAL_METRICS.counter("queries.total").value
        db.sql("SELECT count(*) FROM r")
        after = GLOBAL_METRICS.counter("queries.total").value
        assert after == before + 1

    def test_config_clone(self):
        config = EngineConfig(num_threads=3, execution_mode="parallel")
        clone = config.clone(collect_metrics=True)
        assert clone.num_threads == 3
        assert clone.execution_mode == "parallel"
        assert clone.collect_metrics is True
        assert config.collect_metrics is False


# ----------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE
# ----------------------------------------------------------------------


class TestExplainParsing:
    def test_modes(self):
        assert not isinstance(parse_sql("SELECT 1"), ExplainStmt)
        plain = parse_sql("EXPLAIN SELECT 1")
        assert isinstance(plain, ExplainStmt) and plain.mode == "plan"
        lolepop = parse_sql("EXPLAIN LOLEPOP SELECT 1")
        assert lolepop.mode == "lolepop"
        analyze = parse_sql("EXPLAIN ANALYZE SELECT 1")
        assert analyze.mode == "analyze"

    def test_explain_still_returns_plan_rows(self, db):
        result = db.sql("EXPLAIN SELECT k, sum(v) FROM r GROUP BY k")
        assert result.schema.names() == ["plan"]
        text = "\n".join(result.batch.to_pydict()["plan"])
        assert "AGGREGATE" in text

    def test_explain_lolepop(self, db):
        result = db.sql("EXPLAIN LOLEPOP SELECT k, sum(v) FROM r GROUP BY k")
        text = "\n".join(result.batch.to_pydict()["plan"])
        assert "HASHAGG" in text

    def test_trailing_garbage_rejected(self, db):
        with pytest.raises(ReproError):
            db.sql("EXPLAIN ANALYZE SELECT 1 x y z;!")


class TestExplainAnalyze:
    def test_acceptance_query(self, db):
        report = db.explain_analyze(ACCEPTANCE_SQL)
        # Per-operator actual rows, estimates, time share.
        assert "rows=" in report and "est=" in report and "q=" in report
        assert "time=" in report and "%" in report
        # All three regions of the query made it into the report.
        assert "-- region 2 --" in report
        assert "HASHAGG" in report and "WINDOW" in report
        # Buffer-reuse and spill counter trailer + Q-error summary.
        assert "buffer-reuse:" in report and "sort-elisions:" in report
        assert "spill:" in report and "written" in report
        assert "max Q-error:" in report
        assert "makespan" in report

    def test_actual_rows_match_result(self, db):
        sql = "SELECT k, sum(v) FROM r GROUP BY k"
        result = db.sql(sql)
        report = db.explain_analyze(sql)
        scan_line = next(
            line for line in report.splitlines() if " SCAN " in line
        )
        assert f"rows={len(result)}" in scan_line

    def test_sql_statement_form(self, db):
        result = db.sql(f"EXPLAIN ANALYZE {ACCEPTANCE_SQL}")
        assert result.schema.names() == ["plan"]
        assert result.profile is not None
        assert result.trace is not None and result.trace.records

    def test_parallel_mode(self, db):
        config = EngineConfig(num_threads=2, execution_mode="parallel")
        report = db.explain_analyze(
            "SELECT k, median(v) FROM r GROUP BY k", config=config
        )
        assert "measured mode" in report or "parallel mode" in report
        assert "rows=" in report

    def test_one_line_per_join_says_what_the_build_chose(self, db):
        db.create_table("dim", {"id": "int64", "name": "string"})
        db.insert("dim", {"id": [0, 1, 2, 3, 9_000_000], "name": list("abcde")})
        config = EngineConfig(num_threads=2, morsel_size=500, execution_mode="parallel")
        sql = (
            "SELECT name, count(*) FROM r LEFT JOIN dim ON k = id "
            "WHERE EXISTS (SELECT 1 FROM r AS o WHERE o.g = r.k) GROUP BY name"
        )
        result = db.sql(sql, config=config.clone(collect_metrics=True))
        by_kind = {join["join"].split()[0]: join for join in result.profile.joins}
        assert set(by_kind) == {"LEFT", "SEMI"}
        k = db.sql("SELECT k FROM r").batch.to_pydict()["k"]
        probed = sum(1 for v in k if v <= 3)  # ids and g hold 0..3, k 0..5
        # 5 distinct ids over a range of 9 M: searched, not laid out; N:1.
        assert by_kind["LEFT"] == {
            "join": "LEFT JOIN ON k=id", "build_rows": 5, "keys": 5, "table": "sorted",
            "shape": "N:1", "probe_rows": 2000, "matched_rows": probed,
        }
        # 2 000 rows over 4 keys: the range itself is the table; N:M. The
        # counts are summed over four morsels after the barrier.
        assert by_kind["SEMI"] == {
            "join": "SEMI JOIN ON k=g", "build_rows": 2000, "keys": 4, "table": "direct",
            "shape": "N:M", "probe_rows": 2000, "matched_rows": probed,
        }
        assert result.profile.to_dict()["joins"] == result.profile.joins
        report = db.explain_analyze(sql, config=config)
        assert (
            f"LEFT JOIN ON k=id  build=5 keys=5 table=sorted N:1 probe=2000 "
            f"matched={probed}" in report.splitlines()
        )
        assert sum(" JOIN ON " in line for line in report.splitlines()) == 2

    def test_spill_line_reports_write_amplification(self, db, tmp_path):
        sql = "SELECT k, sum(v) OVER (PARTITION BY k ORDER BY v) AS c FROM r"
        assert "partition input" not in db.explain_analyze(sql)  # nothing spilled
        config = EngineConfig(
            num_partitions=4, memory_budget_bytes=1024, spill_directory=str(tmp_path)
        )
        report = db.explain_analyze(sql, config=config)
        # 2000 rows: (k, v) once, a permutation vector and one float64
        # window column, over the 16 bytes a row that entered PARTITION
        # (g is pruned).
        assert "spill: 62.5KB written / " in report
        assert f"read, {(16 + 8 + 8) / 16:.2f}× partition input" in report
        profile = db.sql(
            sql, config=config.clone(collect_metrics=True)
        ).profile
        assert profile.counters["spill.partition_input_bytes"] == 2000 * 16

    def test_pruning_is_in_the_rewrite_log(self, db):
        result = db.sql(
            "SELECT k, median(v) FROM r GROUP BY k",
            config=EngineConfig(collect_metrics=True),
        )
        event = result.profile.rewrites[0]
        assert str(event) == "prune-columns: r 3→2"
        assert event.pass_name == "prune-columns" and event.nodes == ("SCAN r",)
        assert result.profile.to_dict()["rewrite_events"][0]["pass"] == "prune-columns"
        assert "  prune-columns: r 3→2" in db.explain_analyze(
            "SELECT k, median(v) FROM r GROUP BY k"
        )

    def test_q_error(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 10) == 10.0
        assert q_error(10, 100) == 10.0
        assert q_error(0, 5) == 5.0  # clamped to one row
        assert q_error(None, 5) is None


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


class TestChromeTrace:
    def _traced(self, db, mode="simulated"):
        config = EngineConfig(
            num_threads=2, collect_trace=True, execution_mode=mode
        )
        return db.sql(
            "SELECT k, g, sum(v) FROM r GROUP BY GROUPING SETS ((k, g), (k))",
            config=config,
        )

    def test_event_schema(self, db):
        result = self._traced(db)
        events = chrome_trace_events(result.trace)
        assert events
        validate_trace_events(events)
        for event in events:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert event["ph"] == "X"
        # Both lanes: per-morsel work items and region spans.
        assert any(event["pid"] == 0 for event in events)
        assert any(
            event["pid"] == 1 and event["name"].startswith("region:")
            for event in events
        )

    def test_round_trip_through_json(self, db, tmp_path):
        result = self._traced(db)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), result.trace)
        decoded = json.loads(path.read_text())
        assert isinstance(decoded, list) and len(decoded) == count
        validate_trace_events(decoded)

    def test_parallel_mode_spans(self, db, tmp_path):
        result = self._traced(db, mode="parallel")
        assert result.trace.regions
        for span in result.trace.regions:
            assert span.end >= span.start >= 0.0
        path = tmp_path / "parallel.json"
        count = write_chrome_trace(str(path), result.trace)
        assert count == len(result.trace.records) + len(result.trace.regions)
        validate_trace_events(json.loads(path.read_text()))

    def test_validation_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_trace_events({"not": "a list"})
        with pytest.raises(ValueError):
            validate_trace_events([{"name": "x", "ph": "X"}])
        with pytest.raises(ValueError):
            validate_trace_events(
                [{"name": "x", "ph": "B", "ts": 0, "dur": 1, "pid": 0, "tid": 0}]
            )


# ----------------------------------------------------------------------
# Trace regions + rendering regressions
# ----------------------------------------------------------------------


class TestTraceRegions:
    def test_simulated_records_regions(self, db):
        config = EngineConfig(num_threads=2, collect_trace=True)
        result = db.sql("SELECT k, sum(v) FROM r GROUP BY k", config=config)
        assert result.trace.regions
        operators = {span.operator for span in result.trace.regions}
        assert operators & {"hashagg", "hashagg-merge", "tablescan"}

    def test_legend_letters_never_collide(self):
        trace = ExecutionTrace()
        for index, operator in enumerate(["sort", "spill", "scan", "source"]):
            trace.add(TraceRecord(0, index, index + 1, operator, "p0"))
        letters = trace.legend_letters()
        # Four operators share the initial 'S'; each must get a distinct,
        # deterministic letter (first free letter of its own name).
        assert letters["sort"] == "S"
        assert letters["spill"] == "P"
        assert letters["scan"] == "C"
        assert letters["source"] == "O"
        assert len(set(letters.values())) == len(letters)
        assert trace.legend_letters() == letters  # deterministic

    def test_legend_exhaustion_falls_back_to_alphabet(self):
        trace = ExecutionTrace()
        trace.add(TraceRecord(0, 0.0, 1.0, "aaa", "p0"))
        trace.add(TraceRecord(0, 1.0, 2.0, "aa", "p0"))
        letters = trace.legend_letters()
        assert letters["aaa"] == "A"
        assert letters["aa"] != "A"
        rendered = trace.render(width=40)
        assert letters["aa"] in rendered

    def test_render_uses_unique_letters(self):
        trace = ExecutionTrace()
        trace.add(TraceRecord(0, 0.0, 0.5, "sort", "p0"))
        trace.add(TraceRecord(1, 0.0, 0.5, "spill", "p0"))
        rendered = trace.render(width=20)
        assert "S=sort" in rendered and "P=spill" in rendered


class TestOperatorSummary:
    def test_includes_zero_output_operators(self, db):
        config = EngineConfig(num_threads=2, collect_trace=True)
        result = db.sql("SELECT k, sum(v) FROM r GROUP BY k", config=config)
        summary = result.operator_summary()
        for dag in result.dags:
            for name in dag.operator_names():
                assert name.lower() in summary
        # SOURCE never emits trace records itself (its pipeline's operators
        # do), so it must appear with zero counts rather than be dropped.
        assert summary["source"] == (0.0, 0)
