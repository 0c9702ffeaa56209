"""Behavioral tests of the baseline engines: they must exhibit the
architectural traits the paper attributes to the systems they stand in for
(not just produce correct answers)."""

import numpy as np
import pytest

from repro import Database, EngineConfig
from repro.execution.scheduler import SPLIT_OVERHEAD, SPLIT_QUANTUM

from tests.helpers import normalized_rows


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", {"g": "int64", "h": "int64", "x": "float64"})
    rng = np.random.default_rng(2)
    n = 2000
    database.insert(
        "t",
        {
            "g": rng.integers(0, 20, n),
            "h": rng.integers(0, 3, n),
            "x": rng.random(n).round(3),
        },
    )
    return database


def trace_of(db, sql, engine, threads=2):
    config = EngineConfig(num_threads=threads, num_partitions=8, collect_trace=True)
    result = db.sql(sql, engine=engine, config=config)
    return result.trace


class TestMonolithicTraits:
    def test_grouping_sets_duplicate_input_scans(self, db):
        """HyPer computes each grouping set independently (UNION ALL): the
        input is scanned once per set; the LOLEPOP engine scans it once."""
        sql = "SELECT g, h, sum(x) FROM t GROUP BY GROUPING SETS ((g,h),(g),(h))"
        mono = trace_of(db, sql, "monolithic")
        lol = trace_of(db, sql, "lolepop")
        mono_scans = sum(1 for r in mono.records if r.name == "tablescan")
        lol_scans = sum(1 for r in lol.records if r.name == "tablescan")
        assert mono_scans >= 3 * lol_scans

    def test_ordered_set_goes_through_window(self, db):
        """The §2 rewrite: percentiles run in a WINDOW operator followed by
        a hash GROUP BY with ANY."""
        sql = (
            "SELECT g, percentile_disc(0.5) WITHIN GROUP (ORDER BY x) "
            "FROM t GROUP BY g"
        )
        mono = trace_of(db, sql, "monolithic")
        assert "window" in mono.operators()
        assert "groupby" in mono.operators()
        lol = trace_of(db, sql, "lolepop")
        assert "ordagg" in lol.operators()
        assert all("hashagg" not in op for op in lol.operators())

    def test_monolithic_sorts_are_not_splittable(self, db):
        """With one huge partition-key group, the monolithic window sort
        cannot use more than one thread; the LOLEPOP sort splits."""
        database = Database()
        database.create_table("o", {"g": "int64", "x": "float64"})
        rng = np.random.default_rng(0)
        n = 30_000
        database.insert(
            "o", {"g": np.zeros(n, dtype=np.int64), "x": rng.random(n)}
        )
        sql = "SELECT sum(x) OVER (PARTITION BY g ORDER BY x) AS c FROM o"
        config = EngineConfig(num_threads=8, num_partitions=8, collect_trace=True)
        mono = database.sql(sql, engine="monolithic", config=config)
        lol = database.sql(sql, engine="lolepop", config=config)
        mono_sort = [r for r in mono.trace.records if "sort" in r.name]
        lol_sort = [r for r in lol.trace.records if r.name == "sort"]
        # Monolithic: one sort work item, unsplit.
        assert len(mono_sort) == 1
        # LOLEPOP: the one partition's sort is one item too (a step of its
        # sort → window → scan chain item), which the scheduler splits by
        # its measured duration — each piece carries the split overhead, so
        # the pieces sum to ``d * (1 + overhead)``.
        (sort,) = [n for n in lol.dags[0].nodes if n.name() == "SORT"]
        assert sort.span.attrs["extra"]["sorted_partitions"] == 1
        duration = sum(r.duration for r in lol_sort) / (1.0 + SPLIT_OVERHEAD)
        rule = min(config.num_threads, max(1, int(duration / SPLIT_QUANTUM)))
        assert len(lol_sort) == rule > 1

    def test_results_still_correct(self, db):
        sql = "SELECT g, percentile_disc(0.5) WITHIN GROUP (ORDER BY x) FROM t GROUP BY g"
        assert normalized_rows(db.sql(sql, engine="monolithic")) == normalized_rows(
            db.sql(sql, engine="naive")
        )


class TestColumnarTraits:
    def test_single_threaded(self, db):
        sql = "SELECT g, sum(x) FROM t GROUP BY g"
        result = db.sql(sql, engine="columnar", config=EngineConfig(num_threads=8))
        assert result.simulated_time == pytest.approx(result.serial_time)

    def test_answers_match(self, db):
        sql = "SELECT g, h, sum(x) FROM t GROUP BY GROUPING SETS ((g,h),(h))"
        assert normalized_rows(db.sql(sql, engine="columnar")) == normalized_rows(
            db.sql(sql, engine="naive")
        )


class TestNaiveEngine:
    def test_runs_tpch_q12(self, tpch_db):
        from repro.tpch import TPCH_QUERIES

        result = tpch_db.sql(TPCH_QUERIES["q12"], engine="naive")
        assert result.schema.names() == [
            "l_shipmode", "high_line_count", "low_line_count",
        ]
        assert [r[0] for r in result.rows()] == ["MAIL", "SHIP"]

    def test_no_parallel_speedup(self, db):
        result = db.sql(
            "SELECT g, sum(x) FROM t GROUP BY g",
            engine="naive",
            config=EngineConfig(num_threads=16),
        )
        assert result.simulated_time == result.serial_time
