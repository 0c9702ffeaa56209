"""Metrics, per-operator stats, EXPLAIN ANALYZE, and Chrome-trace export."""

import json
import random

import pytest

from repro import Database
from repro.errors import ReproError
from repro.execution.context import EngineConfig
from repro.execution.trace import ExecutionTrace, Span
from repro.lolepop.base import node_attrs
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    chrome_trace_events,
    validate_trace_events,
    write_chrome_trace,
)
from repro.observability.analyze import q_error
from repro.observability.metrics import executed_nodes, operator_dict, profile_dict
from repro.sql import parse_sql
from repro.sql.ast import ExplainStmt

#: One PARTITION by ``k`` feeding a SORT → WINDOW → SCAN chain.
WINDOW_SQL = "SELECT k, v, row_number() OVER (PARTITION BY k ORDER BY v) FROM r"

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
    """A ``node`` span's attrs are the operator's counters."""

    def test_batch_list_accounting(self, db):
        from repro.lolepop.base import Dag, SourceOp
        from repro.lolepop.scan_op import ScanOp
        from repro.execution.context import ExecutionContext
        from repro.storage.batch import Batch
        from repro.types import Schema

        schema = Schema.of(("a", "int64"))
        batches = [
            Batch.from_pydict(schema, {"a": [1, 2, 3]}),
            Batch.from_pydict(schema, {"a": [4]}),
        ]
        dag = Dag()
        scan = ScanOp(SourceOp(lambda: batches), limit=3)
        dag.set_sink(scan)
        dag.execute(ExecutionContext(EngineConfig(collect_trace=True)))
        stats = operator_dict(scan)
        assert stats["rows_in"] == 4 and stats["batches_in"] == 2
        assert stats["rows_out"] == 3 and stats["batches_out"] == 1

    def test_to_dict_includes_extra(self):
        from repro.lolepop.base import SourceOp

        node = SourceOp(lambda: [])
        node.span = Span("node", "SOURCE", 1.0, 1.5, attrs=node_attrs())
        assert "extra" not in operator_dict(node)
        node.span.attrs["extra"]["mode"] = "inplace"
        payload = operator_dict(node)
        assert payload["rows_out"] == 0 and payload["wall_time_s"] == 0.5
        assert payload["extra"] == {"mode": "inplace"}

    @pytest.mark.parametrize(
        "sql, expected",
        [
            # A two-input COMBINE reads what both HASHAGGs output.
            (
                "SELECT k, g, sum(v) FROM r GROUP BY GROUPING SETS ((k), (g))",
                [(0, "SOURCE", 0, 0), (0, "HASHAGG", 2000, 4), (0, "HASHAGG", 2000, 4),
                 (0, "COMBINE", 10, 7), (0, "SCAN", 10, 1)],
            ),
            # Every step of the SORT → WINDOW → SCAN chain reads the buffer.
            (
                WINDOW_SQL,
                [(0, "SOURCE", 0, 0), (0, "PARTITION", 2000, 4), (0, "SORT", 2000, 64),
                 (0, "WINDOW", 2000, 64), (0, "SCAN", 2000, 64)],
            ),
            # The outer SOURCE runs the nested region but has no input.
            (
                "SELECT k, median(s) FROM (SELECT k, g, sum(v) AS s FROM r GROUP BY k, g) AS d "
                "GROUP BY k",
                [(0, "SOURCE", 0, 0), (0, "PARTITION", 24, 12), (0, "SORT", 24, 4),
                 (0, "ORDAGG", 24, 4), (0, "SCAN", 6, 4),
                 (1, "SOURCE", 0, 0), (1, "HASHAGG", 2000, 4), (1, "SCAN", 24, 12)],
            ),
        ],
    )
    def test_rows_in_are_what_the_inputs_output(self, db, tiny_partitions, sql, expected):
        config = EngineConfig(num_threads=4, morsel_size=500, collect_trace=True)
        result = db.sql(sql, config=config)
        read = []
        for dag_index, _, node in executed_nodes(result.dags):
            stats = operator_dict(node)
            read.append((dag_index, node.name(), stats["rows_in"], stats["batches_in"]))
        assert read == expected

    def test_bytes_are_counted_where_they_are_written(self, monkeypatch):
        """PARTITION writes the buffer, each WINDOW its one column, and a
        SORT only reorders: together they wrote the final buffer once."""
        import numpy as np

        from repro.lolepop import base

        buffers = []

        def spy(ctx, steps, buffer, keep):
            buffers.append(buffer)
            return run_chain(ctx, steps, buffer, keep)

        run_chain = base.run_chain
        monkeypatch.setattr(base, "run_chain", spy)
        database = Database()
        database.create_table("w", {"k": "int64", "v": "float64", "o": "int64"})
        n = 2000
        database.insert(
            "w", {"k": np.arange(n) % 7, "v": np.arange(n) * 0.5, "o": np.arange(n)[::-1]}
        )
        result = database.sql(
            "SELECT k, rank() OVER (PARTITION BY k ORDER BY v, o), "
            "sum(v) OVER (PARTITION BY k ORDER BY o) FROM w",
            config=EngineConfig(collect_trace=True),
        )
        written = {
            f"{node.name()} {node.describe()}": node.span.attrs["bytes_materialized"]
            for _, _, node in executed_nodes(result.dags)
        }
        assert written == {
            "SOURCE pipeline": 0, "PARTITION k x64": n * 3 * 8, "SORT k,v,o": 0,
            "WINDOW rank->_win0": n * 8, "SORT k,o": 0, "WINDOW sum->_win1": n * 8,
            "SCAN project 5 exprs": 0,
        }
        (buffer,) = set(buffers)
        assert sum(written.values()) == buffer.approx_bytes() == n * 5 * 8


# ----------------------------------------------------------------------
# Query profiles
# ----------------------------------------------------------------------


class TestProfile:
    """A traced run's result is its profile."""

    def test_off_by_default(self, db):
        result = db.sql("SELECT k, sum(v) FROM r GROUP BY k")
        assert result.trace is None
        for dag in result.dags:
            assert all(n.span is None for n in dag.topological_order())

    def test_profile_collection(self, db):
        config = EngineConfig(num_threads=4, collect_trace=True)
        sql = "SELECT k, sum(v) FROM r GROUP BY k"
        result = db.sql(sql, config=config)
        assert result.query == sql and result.config.num_threads == 4
        assert result.serial_time > 0 and result.simulated_time > 0
        nodes = [node for _, _, node in executed_nodes(result.dags)]
        assert len(nodes) == sum(len(dag.nodes) for dag in result.dags)
        names = [node.name() for node in nodes]
        assert "HASHAGG" in names and "SCAN" in names
        scan = next(node for node in nodes if node.name() == "SCAN")
        assert scan.span.attrs["rows_out"] == len(result)
        assert sum(node.span.exclusive for node in nodes) > 0

    def test_profile_to_dict_round_trips(self, db):
        config = EngineConfig(num_threads=2, collect_trace=True)
        result = db.sql(
            "SELECT k, median(v) FROM r GROUP BY k", config=config
        )
        payload = profile_dict(result)
        decoded = json.loads(json.dumps(payload))
        assert decoded["num_threads"] == 2
        assert decoded["dags"] and decoded["dags"][0]["operators"]
        assert decoded["trace_events"]
        validate_trace_events(decoded["trace_events"])

    @pytest.mark.parametrize("orderings", [1, 2])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_summary_counts_work_items_not_split_pieces(
        self, db, tiny_partitions, monkeypatch, threads, orderings
    ):
        from repro.execution import scheduler

        # Every step is long enough to split: on four threads the simulated
        # scheduler runs each sort step of an item as four pieces. Two
        # orderings put two SORT steps in each item of one chain.
        monkeypatch.setattr(scheduler, "SPLIT_QUANTUM", 1e-9)
        sql = WINDOW_SQL if orderings == 1 else (
            "SELECT k, rank() OVER (PARTITION BY k ORDER BY v) AS a, "
            "sum(v) OVER (PARTITION BY k ORDER BY g, v) AS b FROM r"
        )
        config = EngineConfig(num_threads=threads, num_partitions=8, collect_trace=True)
        result = db.sql(sql, config=config)
        sorts = [node for _, _, node in executed_nodes(result.dags) if node.name() == "SORT"]
        assert len(sorts) == orderings
        sorted_partitions = sum(s.span.attrs["extra"]["sorted_partitions"] for s in sorts)
        assert result.operator_summary()["sort"][1] == sorted_partitions > orderings

    def test_config_clone(self):
        config = EngineConfig(num_threads=3, execution_mode="parallel")
        clone = config.clone(collect_trace=True)
        assert clone.num_threads == 3
        assert clone.execution_mode == "parallel"
        assert clone.collect_trace is True
        assert config.collect_trace is False


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

    def test_explain_lolepop_translates_under_the_callers_config(self, db):
        from repro.lolepop.engine import LolepopEngine

        config = EngineConfig(num_partitions=8)
        result = db.sql(f"EXPLAIN LOLEPOP {WINDOW_SQL}", config=config)
        text = "\n".join(result.batch.to_pydict()["plan"])
        plan = db.plan(WINDOW_SQL)
        assert text == LolepopEngine(db.catalog, config, db.estimator).explain(plan)
        assert "PARTITION [k x8]" in text

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
        assert result.trace is not None and result.trace.records
        assert executed_nodes(result.dags)

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
        assert db.sql(sql, config=config).joins == []  # only a traced run has them
        result = db.sql(sql, config=config.clone(collect_trace=True))
        by_kind = {join["join"].split()[0]: join for join in result.joins}
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
        assert profile_dict(result)["joins"] == result.joins
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
        # 2000 rows: (k, v) once, over the 16 bytes a row that entered
        # PARTITION (g is pruned). No reader after the SORT → WINDOW → SCAN
        # chain needs its permutation vector or window column, so neither
        # is written, and each spilled partition is read once.
        assert "spill: 31.2KB written / 31.2KB read, 1.00× partition input" in report
        # Counted whether or not the run is traced.
        assert db.sql(sql, config=config).spill["partition_input_bytes"] == 2000 * 16

    def test_pruning_is_in_the_rewrite_log(self, db):
        result = db.sql(
            "SELECT k, median(v) FROM r GROUP BY k",
            config=EngineConfig(collect_trace=True),
        )
        event = result.rewrites[0]
        assert str(event) == "prune-columns: r 3→2"
        assert event.pass_name == "prune-columns" and event.nodes == ("SCAN r",)
        assert profile_dict(result)["rewrites"][0]["pass"] == "prune-columns"
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
        operators = {span.name for span in result.trace.regions}
        assert operators & {"hashagg", "hashagg-merge", "tablescan"}

    def test_legend_letters_never_collide(self):
        trace = ExecutionTrace()
        for index, operator in enumerate(["sort", "spill", "scan", "source"]):
            trace.add_region(
                operator, "p0", index, index + 1, [(0, index, index + 1, operator, 0)], 1
            )
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
        trace.add_region("aaa", "p0", 0.0, 1.0, [(0, 0.0, 1.0, "aaa", 0)], 1)
        trace.add_region("aa", "p0", 1.0, 2.0, [(0, 1.0, 2.0, "aa", 0)], 1)
        letters = trace.legend_letters()
        assert letters["aaa"] == "A"
        assert letters["aa"] != "A"
        rendered = trace.render(width=40)
        assert letters["aa"] in rendered

    def test_render_uses_unique_letters(self):
        trace = ExecutionTrace()
        trace.add_region("sort", "p0", 0.0, 0.5, [(0, 0.0, 0.5, "sort", 0)], 1)
        trace.add_region("spill", "p0", 0.0, 0.5, [(1, 0.0, 0.5, "spill", 0)], 1)
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


# ----------------------------------------------------------------------
# Attribution by construction: a region is one run_region call, a node's
# time is its own
# ----------------------------------------------------------------------


class TestRegionsAreNotPhaseGroups:
    """``f JOIN a JOIN b ... GROUP BY`` scans three tables in phase ``p1``:
    same operator, same phase label, different regions."""

    @pytest.fixture
    def traced(self):
        import numpy as np

        database = Database()
        database.create_table("f", {"a_id": "int64", "b_id": "int64", "v": "float64"})
        database.create_table("a", {"id": "int64", "name": "string"})
        database.create_table("b", {"id": "int64", "kind": "string"})
        rng = np.random.default_rng(0)
        n = 50_000
        database.insert(
            "f",
            {"a_id": rng.integers(0, 8, n), "b_id": rng.integers(0, 5, n), "v": rng.random(n)},
        )
        database.insert("a", {"id": list(range(8)), "name": [f"a{i}" for i in range(8)]})
        database.insert("b", {"id": list(range(5)), "kind": [f"b{i}" for i in range(5)]})
        config = EngineConfig(num_threads=4, morsel_size=20_000, collect_trace=True)
        return database.sql(
            "SELECT name, kind, sum(v) FROM f JOIN a ON a_id = a.id JOIN b ON b_id = b.id "
            "GROUP BY name, kind",
            config=config,
        )

    def test_one_skew_entry_per_region(self, traced):
        from repro.observability.analyze import morsel_skew

        entries = morsel_skew(traced.trace)
        # HASHAGG's 40 partial rows fit one morsel, so it merges in one item
        # and runs no scatter region: 12 regions, one ``hashagg`` in ``p4``.
        assert len(entries) == len(traced.trace.regions) == 12
        scans = sorted(e["items"] for e in entries if e["operator"] == "tablescan")
        assert scans == [1, 1, 3]  # a, b, and f's three morsels: never one 5-item entry
        aggs = [e for e in entries if (e["operator"], e["phase"]) == ("hashagg", "p4")]
        assert [e["items"] for e in aggs] == [3]

    def test_chrome_region_lane_stamps_each_region_with_its_own_skew(self, traced):
        lane = [e for e in chrome_trace_events(traced.trace) if e["pid"] == 1]
        assert len(lane) == 12
        for event in lane:
            skewed = {"morsel_skew", "straggler_thread"} <= set(event["args"])
            assert skewed == (event["args"]["items"] >= 2), event
        # The single HASHAGG merge left no second ``hashagg`` region in
        # ``p4``; the three ``p1`` scans are the same-phase regions here, and
        # only f's (3 items) is stamped — a per-phase group of 5 would be.
        scans = [
            e["args"] for e in lane
            if e["name"] == "region:tablescan" and e["args"]["phase"] == "p1"
        ]
        assert sorted(args["items"] for args in scans) == [1, 1, 3]
        assert sum("morsel_skew" in args for args in scans) == 1


class TestNestedRegionsAreCountedOnce:
    """The outer region's SOURCE runs the inner region's whole DAG: its
    span contains theirs, its *time* does not."""

    SQL = (
        "SELECT x, median(s) FROM (SELECT x, d, sum(v) AS s FROM t GROUP BY x, d) AS q "
        "GROUP BY x"
    )

    @pytest.fixture
    def nested(self):
        import numpy as np

        from repro.observability.telemetry import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig(enabled=True, slow_query_threshold_s=0.0))
        database = Database(telemetry=telemetry)
        database.create_table("t", {"x": "int64", "d": "int64", "v": "float64"})
        rng = np.random.default_rng(0)
        n = 60_000
        database.insert(
            "t", {"x": rng.integers(0, 8, n), "d": rng.integers(0, 50, n), "v": rng.random(n)}
        )
        return database

    def test_exclusive_node_times_fit_inside_the_execute_stage(self, nested):
        result = nested.sql(self.SQL, config=EngineConfig(collect_trace=True))
        (record,) = nested.telemetry.slowlog.snapshot()
        total = sum(node.span.exclusive for _, _, node in executed_nodes(result.dags))
        assert result.serial_time <= total <= 1.15 * record["execute_s"]
        # The serialized wall time stays inclusive (tools/plan_diff.py reads it).
        outer, inner = profile_dict(result)["dags"]
        assert outer["operators"][0]["wall_time_s"] >= sum(
            op["wall_time_s"] for op in inner["operators"]
        )

    def test_explain_analyze_shares_sum_to_one_hundred(self, nested):
        import re
        import statistics

        runs = []
        for _ in range(5):
            shares = {}
            region = None
            for line in nested.explain_analyze(self.SQL).splitlines():
                if line.startswith("-- region"):
                    region = int(line.split()[2])
                found = re.search(r"^#\d+ (\w+) .* time=([\d.]+)%", line)
                if found:
                    shares[(region, found.group(1))] = float(found.group(2))
            assert len(shares) == 8
            assert sum(shares.values()) == pytest.approx(100.0, abs=0.5)
            runs.append(shares)
        # The inner HASHAGG did the work; the outer SOURCE only waited for it.
        # Medians over runs: one collector pause inside the SOURCE's fraction
        # of a millisecond can outweigh a single run's HASHAGG.
        def median(node):
            return statistics.median(shares[node] for shares in runs)

        assert median((0, "SOURCE")) < median((1, "HASHAGG"))


# ----------------------------------------------------------------------
# The views of one execution, frozen
# ----------------------------------------------------------------------

#: Keys whose values are clock readings or follow from them (which virtual
#: thread an item landed on, which region straggled).
_TIMING_KEYS = frozenset({
    "serial_time_s", "makespan_s", "wall_time_s", "ts", "dur", "tid", "wall",
    "parse_bind_s", "translate_s", "execute_s", "total_s", "queue_wait_s",
    "morsel_max_ms", "morsel_mean_ms", "morsel_skew", "straggler_thread", "straggler",
})


def _frozen(value):
    """``value`` with every timing leaf replaced by ``"<t>"``: the key sets,
    the nesting and every counted value stay."""
    if isinstance(value, dict):
        return {
            key: "<t>" if key in _TIMING_KEYS else _frozen(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_frozen(item) for item in value]
    return value


class TestFrozenViews:
    """The profile JSON, ``QueryRecord.to_dict``, the Chrome lanes and
    ``operator_summary`` of three statements run through the service, as
    commit 975e4bc (flat ``TraceRecord`` / ``RegionSpan`` lists, one
    ``OperatorStats`` per node) produced them.

    ``group_by`` and ``nested_aggregate`` have since changed in one way:
    HASHAGG's partials fit one morsel, so it merges in one item and runs no
    scatter region. Its note gains ``merge`` / ``merge_partitions``, it emits
    one batch (so does every node downstream of it), and the outer PARTITION
    of ``nested_aggregate`` scatters that one batch into single-piece
    partitions that need no compaction. Since then the partition count of
    an unbudgeted keyed PARTITION follows its rows (``k x64`` is the cap):
    the 24 rows of ``nested_aggregate``'s outer PARTITION make one
    partition, noted as ``partitions``, so SORT, ORDAGG and SCAN each run
    one item. ``window_under_budget`` keeps its count under the budget.

    Since then each run of partition-local steps over one buffer is one
    chain region, named by its steps (``region:sort+ordagg``,
    ``region:sort+window+scan``), whose items are still one per step and
    partition, named by the step's operator: ``operator_summary`` and the
    worker lane are unchanged, the region lane is shorter. A chain item
    reads a spilled partition once, and nothing after the chain reads
    ``window_under_budget``'s buffer, so it writes no permutation vector
    or window column: the tuples are written once and read once, the reads
    counting towards the chain's first step (SORT), and the spilled
    partitions sort in place like the loaded one (``mode`` was
    ``permutation``), their file being written no more.

    Since then one flag, ``collect_trace``, writes the whole span tree and
    the traced result is the profile: :func:`profile_dict` writes the same
    JSON from it, its ``spill.*`` counters are ``result.spill`` (the spill
    manager now counts ``partition_input_bytes``), and ``operator_summary``
    counts the steps of work items rather than the pieces a split step is
    scheduled as, which at one thread is the same count.

    Since then PARTITION scatters runs of morsels and hashes by one
    multiply: ``window_under_budget``'s four 500-row morsels are one run,
    so it runs one ``partition`` item (was four), and its six keys now
    reach all four partitions (they reached three). Every partition spills
    and is loaded once (``spill.events`` / ``spill.loads`` and
    ``spilled_partitions`` 3 → 4), so SORT sorts four partitions and
    SORT, SCAN and PROJECT each run four items (were three); SCAN emits
    four batches. ``group_by`` and ``nested_aggregate`` are unchanged.

    Since then a buffer with nothing to hash (no keys, or one partition) is
    filled on the submitting thread, and a partition is compacted by the
    first work item that reads it: ``nested_aggregate``'s one-partition
    outer PARTITION runs no ``partition`` region or item (the worker and
    region lanes lose one entry each, 20/10 → 19/9, and ``operator_summary``
    counts 0 ``partition`` items). ``group_by`` and ``window_under_budget``
    are unchanged.

    Since then an operator's profile JSON has no ``peak_buffer_bytes``: it
    always held the same number as ``bytes_materialized``, which stays (the
    rows below lose that column, every other value is unchanged). The
    record's ``max_q_error`` is the statement's root Q-error, traced or
    not, rather than the worst node's; it reads 1.0 for all three, as
    before.

    Since then a node records only what it measured itself, and an
    operator's profile JSON loses ``buffer_reuse_hits`` (a constant 1 on
    every WINDOW), ``sort_elisions`` (``extra["elided"]`` is the record) and
    ``peak_partition_bytes``. ``bytes_materialized`` is what the node wrote
    into a buffer: ``nested_aggregate``'s SORT wrote nothing (384 → 0),
    ``window_under_budget``'s PARTITION wrote its buffer as built, before
    the budget spilled all of it (0 → 32000, its ``partition_input_bytes``),
    and its WINDOW wrote its one 2000-row column (0 → 16000).
    ``rows_in`` / ``batches_in`` are the inputs' ``rows_out`` /
    ``batches_out``; every one of them and every other value is
    unchanged."""

    STATEMENTS = {
        "group_by": ("SELECT k, sum(v), count(*) FROM r GROUP BY k", {}),
        "window_under_budget": (
            "SELECT k, sum(v) OVER (PARTITION BY k ORDER BY v) AS c FROM r",
            {"num_partitions": 4, "memory_budget_bytes": 1024},
        ),
        "nested_aggregate": (
            "SELECT k, median(s) FROM (SELECT k, g, sum(v) AS s FROM r GROUP BY k, g) AS d "
            "GROUP BY k",
            {},
        ),
    }

    # fmt: off
    RECORDED = {
        "group_by": {
            "profile": {
                "query": "SELECT k, sum(v), count(*) FROM r GROUP BY k",
                "engine": "lolepop",
                "execution_mode": "simulated",
                "num_threads": 1,
                "serial_time_s": "<t>",
                "makespan_s": "<t>",
                "counters": {},
                "joins": [],
                "rewrites": [
                    {"text": "prune-columns: r 3→2", "pass": "prune-columns", "detail": "r 3→2", "nodes": ["SCAN r"]},
                    {
                        "text": "remove_redundant_combines x1",
                        "pass": "remove_redundant_combines",
                        "detail": "x1",
                        "nodes": ["#2 COMBINE [join on (k)]"],
                    },
                ],
            },
            "dags": [
                [
                    [0, "SOURCE", "pipeline", 0, 2000, 0, 4, "<t>", 0, 0, 0, {}],
                    [1, "HASHAGG", "[sum(v), count_star(*)] by (k)", 2000, 6, 4, 1, "<t>", 0, 0, 0, {"merge": "single", "merge_partitions": 1, "partial_rows": 24, "preagg_partials": 4}],
                    [2, "SCAN", "project 3 exprs", 6, 6, 1, 1, "<t>", 0, 0, 0, {"projected_exprs": 3}],
                ],
            ],
            "record": {
                "query_id": "q1",
                "session_id": "s1",
                "sql": "select k, sum(v), count(*) from r group by k",
                "fingerprint": "f16acc748f05a9b5",
                "engine": "lolepop",
                "status": "ok",
                "error": None,
                "rows": 6,
                "plan_cache_hit": False,
                "result_cache_hit": False,
                "parse_bind_s": "<t>",
                "translate_s": "<t>",
                "execute_s": "<t>",
                "total_s": "<t>",
                "queue_wait_s": "<t>",
                "spill_bytes_written": 0,
                "spill_bytes_read": 0,
                "max_q_error": 1.0,
                "morsel_skew": "<t>",
                "straggler": "<t>",
                "wall": "<t>",
            },
            "lane_first": {
                0: {
                    "name": "tablescan",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 0,
                    "tid": "<t>",
                    "args": {"phase": "p1", "query_id": "q1", "session": "s1"},
                },
                1: {
                    "name": "region:tablescan",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 1,
                    "tid": "<t>",
                    "args": {
                        "phase": "p1",
                        "items": 4,
                        "query_id": "q1",
                        "session": "s1",
                        "morsel_max_ms": "<t>",
                        "morsel_mean_ms": "<t>",
                        "morsel_skew": "<t>",
                        "straggler_thread": "<t>",
                    },
                },
                2: {
                    "name": "service:queue-wait",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 2,
                    "tid": "<t>",
                    "args": {"query_id": "q1", "session": "s1"},
                },
            },
            "lane_sizes": {0: 15, 1: 6, 2: 2},
            "lane_names": {
                0: ["hashagg", "hashagg-merge", "project", "scan", "tablescan"],
                1: ["region:hashagg", "region:hashagg-merge", "region:project", "region:scan", "region:tablescan"],
                2: ["service:admission-reserve", "service:queue-wait"],
            },
            "summary": {"hashagg": 4, "hashagg-merge": 1, "project": 5, "scan": 1, "source": 0, "tablescan": 4},
        },
        "nested_aggregate": {
            "profile": {
                "query": "SELECT k, median(s) FROM (SELECT k, g, sum(v) AS s FROM r GROUP BY k, g) AS d GROUP BY k",
                "engine": "lolepop",
                "execution_mode": "simulated",
                "num_threads": 1,
                "serial_time_s": "<t>",
                "makespan_s": "<t>",
                "counters": {},
                "joins": [],
                "rewrites": [
                    {
                        "text": "remove_redundant_combines x1",
                        "pass": "remove_redundant_combines",
                        "detail": "x1",
                        "nodes": ["#4 COMBINE [join on (k)]"],
                    },
                    {
                        "text": "remove_redundant_combines x1",
                        "pass": "remove_redundant_combines",
                        "detail": "x1",
                        "nodes": ["#2 COMBINE [join on (k,g)]"],
                    },
                ],
            },
            "dags": [
                [
                    [0, "SOURCE", "pipeline", 0, 24, 0, 1, "<t>", 0, 0, 0, {}],
                    [1, "PARTITION", "k x64", 24, 24, 1, 1, "<t>", 0, 0, 384, {"scatter_keys": "k", "partitions": 1}],
                    [2, "SORT", "k,s", 24, 24, 1, 1, "<t>", 0, 0, 0, {"mode": "inplace", "sorted_partitions": 1}],
                    [3, "ORDAGG", "[percentile_cont(s, 0.5)] by (k)", 24, 6, 1, 1, "<t>", 0, 0, 0, {"aggregated_partitions": 1, "tasks": 1}],
                    [4, "SCAN", "project 2 exprs", 6, 6, 1, 1, "<t>", 0, 0, 0, {"projected_exprs": 2}],
                ],
                [
                    [0, "SOURCE", "pipeline", 0, 2000, 0, 4, "<t>", 0, 0, 0, {}],
                    [1, "HASHAGG", "[sum(v)] by (k,g)", 2000, 24, 4, 1, "<t>", 0, 0, 0, {"merge": "single", "merge_partitions": 1, "partial_rows": 96, "preagg_partials": 4}],
                    [2, "SCAN", "project 3 exprs", 24, 24, 1, 1, "<t>", 0, 0, 0, {"projected_exprs": 3}],
                ],
            ],
            "record": {
                "query_id": "q1",
                "session_id": "s1",
                "sql": "select k, median(s) from (select k, g, sum(v) as s from r group by k, g) as d group by k",
                "fingerprint": "7dd1e8414d5ee009",
                "engine": "lolepop",
                "status": "ok",
                "error": None,
                "rows": 6,
                "plan_cache_hit": False,
                "result_cache_hit": False,
                "parse_bind_s": "<t>",
                "translate_s": "<t>",
                "execute_s": "<t>",
                "total_s": "<t>",
                "queue_wait_s": "<t>",
                "spill_bytes_written": 0,
                "spill_bytes_read": 0,
                "max_q_error": 1.0,
                "morsel_skew": "<t>",
                "straggler": "<t>",
                "wall": "<t>",
            },
            "lane_first": {
                0: {
                    "name": "tablescan",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 0,
                    "tid": "<t>",
                    "args": {"phase": "p2", "query_id": "q1", "session": "s1"},
                },
                1: {
                    "name": "region:tablescan",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 1,
                    "tid": "<t>",
                    "args": {
                        "phase": "p2",
                        "items": 4,
                        "query_id": "q1",
                        "session": "s1",
                        "morsel_max_ms": "<t>",
                        "morsel_mean_ms": "<t>",
                        "morsel_skew": "<t>",
                        "straggler_thread": "<t>",
                    },
                },
                2: {
                    "name": "service:queue-wait",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 2,
                    "tid": "<t>",
                    "args": {"query_id": "q1", "session": "s1"},
                },
            },
            "lane_sizes": {0: 19, 1: 9, 2: 2},
            "lane_names": {
                0: [
                    "hashagg",
                    "hashagg-merge",
                    "ordagg",
                    "project",
                    "scan",
                    "sort",
                    "tablescan",
                ],
                1: [
                    "region:hashagg",
                    "region:hashagg-merge",
                    "region:project",
                    "region:scan",
                    "region:sort+ordagg",
                    "region:tablescan",
                ],
                2: ["service:admission-reserve", "service:queue-wait"],
            },
            "summary": {
                "hashagg": 4,
                "hashagg-merge": 1,
                "ordagg": 1,
                "partition": 0,
                "project": 6,
                "scan": 2,
                "sort": 1,
                "source": 0,
                "tablescan": 4,
            },
        },
        "window_under_budget": {
            "profile": {
                "query": "SELECT k, sum(v) OVER (PARTITION BY k ORDER BY v) AS c FROM r",
                "engine": "lolepop",
                "execution_mode": "simulated",
                "num_threads": 1,
                "serial_time_s": "<t>",
                "makespan_s": "<t>",
                "counters": {
                    "spill.partition_input_bytes": 32000.0,
                    "spill.bytes_written": 32000.0,
                    "spill.bytes_read": 32000.0,
                    "spill.events": 4.0,
                    "spill.loads": 4.0,
                },
                "joins": [],
                "rewrites": [{"text": "prune-columns: r 3→2", "pass": "prune-columns", "detail": "r 3→2", "nodes": ["SCAN r"]}],
            },
            "dags": [
                [
                    [0, "SOURCE", "pipeline", 0, 2000, 0, 4, "<t>", 0, 0, 0, {}],
                    [1, "PARTITION", "k x4", 2000, 2000, 4, 4, "<t>", 32000, 0, 32000, {"spilled_partitions": 4, "scatter_keys": "k"}],
                    [2, "SORT", "k,v", 2000, 2000, 4, 4, "<t>", 0, 32000, 0, {"mode": "inplace", "sorted_partitions": 4}],
                    [3, "WINDOW", "sum->_win0", 2000, 2000, 4, 4, "<t>", 0, 0, 16000, {"window_calls": 1}],
                    [4, "SCAN", "project 3 exprs", 2000, 2000, 4, 4, "<t>", 0, 0, 0, {"projected_exprs": 3}],
                ],
            ],
            "record": {
                "query_id": "q1",
                "session_id": "s1",
                "sql": "select k, sum(v) over (partition by k order by v) as c from r",
                "fingerprint": "8f1faa17431ee1a6",
                "engine": "lolepop",
                "status": "ok",
                "error": None,
                "rows": 2000,
                "plan_cache_hit": False,
                "result_cache_hit": False,
                "parse_bind_s": "<t>",
                "translate_s": "<t>",
                "execute_s": "<t>",
                "total_s": "<t>",
                "queue_wait_s": "<t>",
                "spill_bytes_written": 32000,
                "spill_bytes_read": 32000,
                "max_q_error": 1.0,
                "morsel_skew": "<t>",
                "straggler": "<t>",
                "wall": "<t>",
            },
            "lane_first": {
                0: {
                    "name": "tablescan",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 0,
                    "tid": "<t>",
                    "args": {"phase": "p1", "query_id": "q1", "session": "s1"},
                },
                1: {
                    "name": "region:tablescan",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 1,
                    "tid": "<t>",
                    "args": {
                        "phase": "p1",
                        "items": 4,
                        "query_id": "q1",
                        "session": "s1",
                        "morsel_max_ms": "<t>",
                        "morsel_mean_ms": "<t>",
                        "morsel_skew": "<t>",
                        "straggler_thread": "<t>",
                    },
                },
                2: {
                    "name": "service:queue-wait",
                    "ph": "X",
                    "ts": "<t>",
                    "dur": "<t>",
                    "pid": 2,
                    "tid": "<t>",
                    "args": {"query_id": "q1", "session": "s1"},
                },
            },
            "lane_sizes": {0: 22, 1: 5, 2: 2},
            "lane_names": {
                0: ["partition", "project", "scan", "sort", "spill", "tablescan", "window"],
                1: [
                    "region:partition",
                    "region:project",
                    "region:sort+window+scan",
                    "region:spill",
                    "region:tablescan",
                ],
                2: ["service:admission-reserve", "service:queue-wait"],
            },
            "summary": {"partition": 1, "project": 4, "scan": 4, "sort": 4, "source": 0, "spill": 1, "tablescan": 4, "window": 4},
        },
    }
    # fmt: on

    #: The keys of one serialized operator, in order; ``extra`` follows when
    #: the operator noted anything. A row below is the values in this order.
    OPERATOR_KEYS = [
        "id", "name", "describe", "rows_in", "rows_out", "batches_in", "batches_out",
        "wall_time_s", "spill_bytes_written", "spill_bytes_read", "bytes_materialized",
    ]

    def _row(self, operator):
        assert [key for key in operator if key != "extra"] == self.OPERATOR_KEYS
        return [operator[key] for key in self.OPERATOR_KEYS] + [operator.get("extra", {})]

    def _views(self, db, name, tmp_path):
        from repro.observability.telemetry import Telemetry, TelemetryConfig
        from repro.server.service import QueryService

        sql, overrides = self.STATEMENTS[name]
        telemetry = Telemetry(TelemetryConfig(enabled=True, slow_query_threshold_s=0.0))
        db.telemetry = telemetry
        with QueryService(db) as service:
            session = service.session(
                num_threads=1, morsel_size=500, collect_trace=True,
                spill_directory=str(tmp_path), **overrides,
            )
            result = session.execute(sql)
        profile = _frozen(profile_dict(result))
        events = profile.pop("trace_events")
        dags = profile.pop("dags")
        assert [dag["index"] for dag in dags] == list(range(len(dags)))
        lanes = {}
        for event in events:
            lanes.setdefault(event["pid"], []).append(event)
        (record,) = telemetry.slowlog.snapshot()
        return {
            "profile": profile,
            "dags": [[self._row(op) for op in dag["operators"]] for dag in dags],
            "record": _frozen(record),
            "lane_first": {pid: lane[0] for pid, lane in sorted(lanes.items())},
            "lane_sizes": {pid: len(lane) for pid, lane in sorted(lanes.items())},
            "lane_names": {
                pid: sorted({event["name"] for event in lane})
                for pid, lane in sorted(lanes.items())
            },
            "summary": {
                op: count for op, (_, count) in sorted(result.operator_summary().items())
            },
        }

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_views_unchanged_from_the_parent(self, db, name, tmp_path):
        assert self._views(db, name, tmp_path) == self.RECORDED[name]
