"""Golden tests: LOLEPOP DAG shapes for the paper's Figure 1 and Figure 3.

These assert the *operator sequence* of each translated plan, which is what
the figures show. Regressions here mean the translation or an optimizer
pass changed behaviorally.

The translator prices paper §3.3's DISTINCT lowering with the table's
statistics, so the two figures with a DISTINCT next to an ordered-set
aggregate are pinned on inserted data: the paper's hash pair where the
DISTINCT argument has few values, the re-sorted buffer where it has many.
"""

import numpy as np
import pytest

from repro import Database, EngineConfig


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "r",
        {
            "a": "int64", "b": "float64", "c": "float64", "d": "float64",
            "k": "int64", "n": "int64", "q": "float64",
        },
    )
    return database


def fill(db, distinct, rows=20_000):
    """Insert ``rows`` rows into ``r``; ``b`` and ``c`` (the DISTINCT
    arguments below) draw from ``distinct`` values, the group keys from
    ten."""
    rng = np.random.default_rng(0)
    values = rng.integers(0, distinct, rows).astype(float)
    keys = {name: rng.integers(0, 10, rows) for name in ("a", "d", "k", "n")}
    db.insert("r", {**keys, "b": values, "c": values, "q": rng.random(rows)})


def ops(db, sql, **config_kwargs):
    from repro.lolepop import LolepopEngine

    config = EngineConfig(**config_kwargs) if config_kwargs else db.config
    engine = LolepopEngine(db.catalog, config)
    dag_text = engine.explain(db.plan(sql))
    return [line.split()[1] for line in dag_text.splitlines()]


FIGURE_1 = "SELECT median(a), avg(b), sum(DISTINCT c) FROM r GROUP BY d"
FIGURE_3_PLAN_2 = (
    "SELECT a, sum(b), sum(DISTINCT b), "
    "percentile_disc(0.5) WITHIN GROUP (ORDER BY c), "
    "percentile_disc(0.5) WITHIN GROUP (ORDER BY d) FROM r GROUP BY a"
)


class TestFigure1:
    def test_median_avg_distinct_sum(self, db):
        """Figure 1: PARTITION/SORT/ORDAGG + HASHAGG/HASHAGG + COMBINE/SCAN —
        the hash pair is the cheaper DISTINCT while its argument has few
        values."""
        fill(db, distinct=5)
        assert ops(db, FIGURE_1) == [
            "SOURCE", "PARTITION", "SORT", "ORDAGG",
            "HASHAGG", "HASHAGG", "COMBINE", "SCAN",
        ]

    def test_many_distinct_values_resort_the_buffer(self, db):
        """§3.3's alternative: with a near-unique argument the hash pair's
        tables outgrow the cache, so the buffer is re-sorted by (d, c) and
        a duplicate-sensitive ORDAGG dedups."""
        fill(db, distinct=10**9)
        assert ops(db, FIGURE_1) == [
            "SOURCE", "PARTITION", "SORT", "ORDAGG", "SORT", "ORDAGG",
            "COMBINE", "SCAN",
        ]


class TestFigure3:
    def test_plan_0_composed_shares_hashagg(self, db):
        """One HASHAGG computes var_pop, count, and sum together."""
        sequence = ops(db, "SELECT a, var_pop(b), count(b), sum(b) FROM r GROUP BY a")
        assert sequence == ["SOURCE", "HASHAGG", "SCAN"]

    def test_plan_1_grouping_sets_reaggregate(self, db):
        sequence = ops(
            db, "SELECT a, b, sum(c) FROM r GROUP BY GROUPING SETS ((a),(b),(a,b))"
        )
        assert sequence == [
            "SOURCE", "HASHAGG", "HASHAGG", "HASHAGG", "COMBINE", "SCAN",
        ]

    def test_plan_2_shared_buffer_resort(self, db):
        fill(db, distinct=5)
        assert ops(db, FIGURE_3_PLAN_2) == [
            "SOURCE", "PARTITION", "SORT", "ORDAGG", "SORT", "ORDAGG",
            "HASHAGG", "HASHAGG", "COMBINE", "SCAN",
        ]

    def test_plan_2_many_distinct_values_resort_once_more(self, db):
        """The DISTINCT joins the chain as a third re-sort of the shared
        buffer; no HASHAGG pair is left."""
        fill(db, distinct=10**9)
        assert ops(db, FIGURE_3_PLAN_2) == [
            "SOURCE", "PARTITION", "SORT", "ORDAGG", "SORT", "ORDAGG",
            "SORT", "ORDAGG", "COMBINE", "SCAN",
        ]

    def test_plan_3_order_by_reuses_window_buffer(self, db):
        sequence = ops(
            db,
            "SELECT row_number() OVER (PARTITION BY a ORDER BY b) AS rn, c "
            "FROM r ORDER BY c LIMIT 100",
        )
        assert sequence == [
            "SOURCE", "PARTITION", "SORT", "WINDOW", "SORT", "MERGE", "SCAN",
        ]

    def test_plan_4_mad(self, db):
        sequence = ops(db, "SELECT a, mad(b) FROM r GROUP BY a")
        assert sequence == [
            "SOURCE", "PARTITION", "SORT", "WINDOW", "SORT", "ORDAGG", "SCAN",
        ]

    def test_plan_5_mssd_no_resort(self, db):
        """The nested-window ordering is compatible with the group keys:
        no re-sort between WINDOW and ORDAGG."""
        sequence = ops(
            db,
            "SELECT b, sum(pow(lead(a) OVER (PARTITION BY b ORDER BY a) - a, 2)) "
            "/ nullif(count(*) - 1, 0) FROM r GROUP BY b",
        )
        assert sequence == [
            "SOURCE", "PARTITION", "SORT", "WINDOW", "ORDAGG", "SCAN",
        ]


class TestAntiDependencies:
    def test_resort_waits_for_first_ordagg(self, db):
        """The second SORT of Figure 3 plan 2 carries an `after` edge on the
        first ORDAGG (the buffer is reordered in place)."""
        from repro.lolepop import LolepopEngine

        engine = LolepopEngine(db.catalog, db.config)
        text = engine.explain(
            db.plan(
                "SELECT a, percentile_disc(0.5) WITHIN GROUP (ORDER BY c), "
                "percentile_disc(0.5) WITHIN GROUP (ORDER BY d) FROM r GROUP BY a"
            )
        )
        resort_lines = [
            line for line in text.splitlines()
            if "SORT" in line and "after" in line
        ]
        assert len(resort_lines) == 1


class TestOptimizerFlags:
    def test_redundant_combine_removed(self, db):
        with_pass = ops(db, "SELECT a, sum(b) FROM r GROUP BY a")
        assert "COMBINE" not in with_pass
        without = ops(
            db, "SELECT a, sum(b) FROM r GROUP BY a",
            remove_redundant_combines=False,
        )
        assert "COMBINE" in without

    def test_buffer_reuse_flag(self, db):
        shared = ops(
            db,
            "SELECT a, percentile_disc(0.5) WITHIN GROUP (ORDER BY c), "
            "sum(DISTINCT c) FROM r GROUP BY a",
        )
        # With reuse, the distinct sum folds into the sorted key range:
        # no extra HASHAGG pair.
        assert shared.count("HASHAGG") == 0
        unshared = ops(
            db,
            "SELECT a, percentile_disc(0.5) WITHIN GROUP (ORDER BY c), "
            "sum(DISTINCT c) FROM r GROUP BY a",
            reuse_buffers=False,
        )
        assert unshared.count("HASHAGG") == 2

    def test_sort_elision_flag(self, db):
        base = ops(
            db,
            "SELECT b, sum(pow(lead(a) OVER (PARTITION BY b ORDER BY a) - a, 2)) "
            "FROM r GROUP BY b",
        )
        assert base.count("SORT") == 1
        noelide = ops(
            db,
            "SELECT b, sum(pow(lead(a) OVER (PARTITION BY b ORDER BY a) - a, 2)) "
            "FROM r GROUP BY b",
            elide_sorts=False,
        )
        assert noelide.count("SORT") == 2
