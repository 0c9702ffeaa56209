"""Sanity tests for the benchmark workload definitions and Figure-8-style
trace structure (the benchmarks themselves live under benchmarks/)."""

import pytest

from repro import Database, EngineConfig
from repro.bench import (
    BenchResult,
    FIGURE8_QUERIES,
    TABLE2_QUERIES,
    TABLE3_CATEGORIES,
    TABLE3_QUERIES,
)
from repro.bench.workloads import TABLE3_PAPER_FACTORS_20T
from repro.errors import PlanError
from repro.lolepop.base import Dag, SourceOp
from repro.observability.metrics import executed_nodes, operator_dict
from repro.sql import parse_sql
from repro.tpch import populate_database


@pytest.fixture(scope="module")
def db():
    database = Database()
    populate_database(database, scale_factor=0.002, tables=["lineitem"])
    return database


class TestWorkloadDefinitions:
    def test_table3_is_complete(self):
        assert sorted(TABLE3_QUERIES) == list(range(1, 19))
        assert sorted(TABLE3_CATEGORIES) == list(range(1, 19))
        assert sorted(TABLE3_PAPER_FACTORS_20T) == list(range(1, 19))

    @pytest.mark.parametrize("number", sorted(TABLE3_QUERIES))
    def test_table3_queries_parse(self, number):
        parse_sql(TABLE3_QUERIES[number])

    @pytest.mark.parametrize("number", sorted(TABLE3_QUERIES))
    def test_table3_queries_run(self, db, number):
        result = db.sql(TABLE3_QUERIES[number])
        assert len(result) > 0

    @pytest.mark.parametrize("qid", sorted(TABLE2_QUERIES))
    def test_table2_queries_run(self, db, qid):
        assert len(db.sql(TABLE2_QUERIES[qid])) > 0

    def test_table3_category_counts_match_paper(self):
        from collections import Counter

        counts = Counter(TABLE3_CATEGORIES.values())
        assert counts == {
            "Single": 3, "Ordered-Set": 4, "Grouping-Sets": 5,
            "Window": 3, "Nested": 3,
        }


class TestBenchResult:
    def make(self, threads):
        return BenchResult("q", "lolepop", threads, 1.0, 0.4, 10)

    def test_makespan_field(self):
        assert self.make(4).makespan == 0.4

    def test_time_semantics(self):
        assert self.make(4).time == 0.4  # threads > 1 → makespan
        assert self.make(1).time == 1.0  # one thread → measured serial time


class TestFigure8Traces:
    def run_trace(self, db, number):
        config = EngineConfig(
            num_threads=4, num_partitions=16, collect_trace=True,
            morsel_size=2000,
        )
        return db.sql(FIGURE8_QUERIES[number], config=config).trace

    def test_query1_operator_sequence(self, db):
        """Grouping-set query: hash pipelines only, no sorting."""
        trace = self.run_trace(db, 1)
        operators = set(trace.operators())
        assert "hashagg" in operators and "hashagg-merge" in operators
        assert "sort" not in operators

    def test_query1_preaggregation_dominates(self, db):
        """The paper: the first scan pipeline dominates; reaggregation
        pipelines are barely visible.

        Rows decide that: the first HASHAGG reads the table, the other two
        grouping sets reaggregate its groups. In wall time the margin is thin
        at 12k rows (~3.6 ms of pre-aggregation against ~2 ms for 36 merge
        items of mostly fixed cost; one trace's ratio spreads 1.45-2.2), so
        times are compared best-of-five."""
        config = EngineConfig(
            num_threads=4, num_partitions=16, morsel_size=2000, collect_trace=True
        )
        dags = db.sql(FIGURE8_QUERIES[1], config=config).dags
        first, *reaggregations = [
            operator_dict(node) for _, _, node in executed_nodes(dags) if node.name() == "HASHAGG"
        ]
        assert len(reaggregations) == 2
        assert all(first["rows_in"] > 50 * other["rows_in"] for other in reaggregations)

        traces = [self.run_trace(db, 1) for _ in range(5)]
        preaggregation = min(trace.total_work("hashagg") for trace in traces)
        merge = min(trace.total_work("hashagg-merge") for trace in traces)
        assert preaggregation > 1.5 * merge

    def test_query2_shared_buffer_pipeline(self, db, tiny_partitions):
        """MAD query: partition → sort → window → (re)sort → ordagg. At
        test scale the buffer fits one partition, filled with no scatter
        region; ``tiny_partitions`` brings back the partition phase."""
        trace = self.run_trace(db, 2)
        operators = trace.operators()
        for op in ("partition", "sort", "window", "ordagg"):
            assert op in operators
        # The window runs before the final ordagg.
        first_window = min(
            r.start for r in trace.records if r.name == "window"
        )
        last_ordagg = max(
            r.end for r in trace.records if r.name == "ordagg"
        )
        assert first_window < last_ordagg

    def test_threads_bounded(self, db):
        trace = self.run_trace(db, 2)
        assert set(trace.by_thread()) <= set(range(4))

    def test_makespan_not_exceeding_serial(self, db):
        config = EngineConfig(num_threads=4, collect_trace=True)
        result = db.sql(FIGURE8_QUERIES[2], config=config)
        assert result.simulated_time <= result.serial_time * 1.2


class TestDag:
    def test_cycle_detection(self):
        a = SourceOp(lambda: [])
        b = SourceOp(lambda: [])
        a.after.append(b)
        b.after.append(a)
        dag = Dag()
        dag.add(a)
        dag.add(b)
        dag.sink = a
        with pytest.raises(PlanError):
            dag.topological_order()

    def test_no_sink_rejected(self):
        dag = Dag()
        dag.add(SourceOp(lambda: []))
        with pytest.raises(PlanError):
            dag.topological_order()

    def test_explain_stable(self):
        db = Database()
        db.create_table("t", {"a": "int64", "b": "float64"})
        first = db.explain_lolepop("SELECT a, median(b) FROM t GROUP BY a")
        second = db.explain_lolepop("SELECT a, median(b) FROM t GROUP BY a")
        assert first == second
