"""Tests for statistics collection, cardinality estimation, and the
cost-based DISTINCT decision (paper §7 future work)."""

import numpy as np
import pytest

from repro import Database, EngineConfig
from repro.costmodel import choose_distinct_strategy, hash_aggregation_cost, sort_cost
from repro.logical.cardinality import CardinalityEstimator
from repro.stats import StatisticsCache, chao1_estimate, collect_table_stats

from tests.helpers import assert_engines_agree


@pytest.fixture
def db():
    return _database()


def _database(**kwargs):
    database = Database(**kwargs)
    database.create_table(
        "t", {"k": "int64", "few": "int64", "many": "int64", "x": "float64"}
    )
    rng = np.random.default_rng(5)
    n = 20_000
    database.insert(
        "t",
        {
            "k": rng.integers(0, 100, n),
            "few": rng.integers(0, 5, n),
            "many": rng.integers(0, 1_000_000, n),
            "x": rng.random(n),
        },
    )
    return database


class TestStatistics:
    def test_row_count_exact(self, db):
        stats = collect_table_stats(db.table("t"))
        assert stats.rows == 20_000

    def test_low_cardinality_estimate(self, db):
        stats = collect_table_stats(db.table("t"))
        assert stats.column("few").distinct == pytest.approx(5, abs=1)

    def test_mid_cardinality_estimate(self, db):
        stats = collect_table_stats(db.table("t"))
        assert 80 <= stats.column("k").distinct <= 120

    def test_high_cardinality_estimate_large(self, db):
        stats = collect_table_stats(db.table("t"))
        # 20k draws from a 1M domain: essentially all distinct; Chao1
        # should extrapolate far beyond the sample size.
        assert stats.column("many").distinct > 5_000

    def test_estimate_capped_by_rows(self, db):
        stats = collect_table_stats(db.table("t"))
        for name in ("k", "few", "many", "x"):
            assert stats.column(name).distinct <= 20_000

    def test_null_fraction(self):
        database = Database()
        database.create_table("n", {"x": "int64"})
        database.insert("n", {"x": [1, None, None, 4]})
        stats = collect_table_stats(database.table("n"))
        assert stats.column("x").null_fraction == pytest.approx(0.5)

    def test_chao1_formula(self):
        assert chao1_estimate(10, 4, 2) == pytest.approx(10 + 16 / 4)
        assert chao1_estimate(10, 0, 0) == pytest.approx(10)

    def test_cache_invalidation(self, db):
        cache = StatisticsCache(db.catalog)
        before = cache.table_stats("t")
        # Up to STALE_FRACTION of the table's rows written: kept as-is.
        append = {c: np.ones(before.rows // 10, dtype=np.int64) for c in ("k", "few", "many")}
        append["x"] = np.full(before.rows // 10, 0.5)
        db.insert("t", append)
        assert cache.table_stats("t") is before
        # One row more: re-collected, with the rows the table has now.
        db.insert("t", {"k": [1], "few": [1], "many": [1], "x": [0.5]})
        after = cache.table_stats("t")
        assert after is not before
        assert after.rows == before.rows + before.rows // 10 + 1
        # A truncate writes every row away.
        db.table("t").truncate()
        assert cache.table_stats("t").rows == 0

    def test_insert_into_one_table_does_not_resample_another(
        self, db, monkeypatch
    ):
        """``Database`` keeps one estimator whose statistics invalidate
        per table, not on any catalog-version bump."""
        import repro.stats

        db.create_table("u", {"y": "int64"})
        db.insert("u", {"y": [1, 2, 3]})
        sampled = []
        collect = repro.stats.collect_table_stats

        def counting_collect(table, *args, **kwargs):
            sampled.append(table.name)
            return collect(table, *args, **kwargs)

        monkeypatch.setattr(repro.stats, "collect_table_stats", counting_collect)
        assert db.estimate("SELECT * FROM t") == 20_000
        assert db.estimate("SELECT * FROM u") == 3
        assert sorted(sampled) == ["t", "u"]
        db.insert("u", {"y": [4]})
        assert db.estimate("SELECT * FROM t") == 20_000
        assert db.estimate("SELECT * FROM u") == 4
        assert sorted(sampled) == ["t", "u", "u"]

    def test_recreated_table_does_not_serve_its_predecessors_statistics(self):
        database = Database()
        for rows in (100, 7):  # both incarnations sit at table version 1
            database.create_table("r", {"x": "int64"})
            database.insert("r", {"x": list(range(rows))})
            assert database.estimate("SELECT * FROM r") == rows
            database.drop_table("r")


class TestCardinality:
    def estimator(self, db):
        return CardinalityEstimator(StatisticsCache(db.catalog))

    def test_scan_rows(self, db):
        est = self.estimator(db)
        assert est.rows(db.plan("SELECT k FROM t")) == pytest.approx(
            20_000, rel=0.01
        )

    def test_equality_filter(self, db):
        est = self.estimator(db)
        plan = db.plan("SELECT k FROM t WHERE few = 3")
        assert est.rows(plan) == pytest.approx(4_000, rel=0.5)

    def test_group_count(self, db):
        est = self.estimator(db)
        plan = db.plan("SELECT few, k FROM t")
        # group by (few, k) ≈ 5 × 100 = 500 combinations
        groups = est.group_count(plan, ["few", "k"])
        assert 300 <= groups <= 1_000

    def test_unprojected_column_falls_back(self, db):
        est = self.estimator(db)
        plan = db.plan("SELECT k FROM t")
        # `few` is not in the projection: provenance unknown, heuristic guess.
        assert est.column_distinct(plan, "few") == pytest.approx(2_000)

    def test_aggregate_rows(self, db):
        est = self.estimator(db)
        plan = db.plan("SELECT few, count(*) FROM t GROUP BY few")
        assert est.rows(plan) == pytest.approx(5, abs=2)

    def test_limit_rows(self, db):
        est = self.estimator(db)
        assert est.rows(db.plan("SELECT k FROM t LIMIT 7")) == 7

    def test_semi_join_bounded_by_left(self, db):
        db.create_table("s", {"k": "int64"})
        db.insert("s", {"k": list(range(50))})
        est = self.estimator(db)
        plan = db.plan("SELECT k FROM t WHERE k IN (SELECT k FROM s)")
        assert est.rows(plan) <= 20_000


class TestCostModel:
    def test_costs_monotone(self):
        assert sort_cost(1000) > sort_cost(100)
        assert hash_aggregation_cost(1000, 10) > hash_aggregation_cost(100, 10)

    def test_high_cardinality_distinct_prefers_sort(self):
        # Nearly-unique argument: the dedup hash table is as large as the
        # input; one re-sort of the existing buffer wins.
        decision = choose_distinct_strategy(
            input_rows=1_000_000, distinct_groups=990_000, final_groups=100
        )
        assert decision.use_sort

    def test_low_cardinality_distinct_prefers_hash(self):
        decision = choose_distinct_strategy(
            input_rows=1_000_000, distinct_groups=200, final_groups=100
        )
        assert not decision.use_sort


def _legend(text):
    """Operator names of a rendered DAG (``#i NAME ...`` lines)."""
    return [line.split()[1] for line in text.splitlines() if line.startswith("#")]


class TestCostBasedPlans:
    """The translator prices every DISTINCT beside an ordered-set chain with
    the database's estimator; there is no switch."""

    @staticmethod
    def plan_ops(db, sql):
        return _legend(db.explain_lolepop(sql))

    def test_high_cardinality_distinct_uses_ordagg(self, db):
        sql = (
            "SELECT few, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
            "count(DISTINCT many) FROM t GROUP BY few"
        )
        priced = self.plan_ops(db, sql)
        assert priced.count("HASHAGG") == 0
        assert priced.count("ORDAGG") == 2  # extra dedup ORDAGG

    def test_low_cardinality_distinct_keeps_hash(self, db):
        sql = (
            "SELECT k, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
            "sum(DISTINCT few) FROM t GROUP BY k"
        )
        priced = self.plan_ops(db, sql)
        assert priced.count("HASHAGG") == 2  # the paper's hash pair

    def test_results_unchanged(self, db):
        sql = (
            "SELECT few, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
            "count(DISTINCT many), sum(x) FROM t GROUP BY few"
        )
        assert "HASHAGG" not in self.plan_ops(db, sql)
        assert_engines_agree(db, sql, engines=["lolepop"])


class TestOneDagPerPath:
    """Execution, EXPLAIN LOLEPOP, ``explain_lolepop``, ``verify_plan`` and
    EXPLAIN ANALYZE all translate with the database's estimator — here the
    feedback-calibrated one — so they show, verify and run one DAG. The
    plan cache is off so that every path translates afresh: a cached DAG
    template keeps the lowering it was built with (tests/test_plan_cache.py)."""

    @pytest.mark.parametrize(
        "sql, model_hashaggs, calibrated_hashaggs",
        [
            (  # near-unique argument: the priced re-sort
                "SELECT few, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
                "count(DISTINCT many) FROM t GROUP BY few",
                0, 0,
            ),
            (  # five values: the hash pair
                "SELECT k, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
                "sum(DISTINCT few) FROM t GROUP BY k",
                2, 2,
            ),
            (  # the model guesses a third of the rows pass; all 20k do
                "SELECT few, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
                "count(DISTINCT many) FROM t WHERE many + 0 >= 0 GROUP BY few",
                2, 0,
            ),
        ],
        ids=["sort-path", "hash-pair", "calibration-flips"],
    )
    def test_same_dag_on_every_path(
        self, tmp_path, sql, model_hashaggs, calibrated_hashaggs
    ):
        db = _database(feedback_dir=str(tmp_path), plan_cache_size=0)
        assert _legend(db.explain_lolepop(sql)).count("HASHAGG") == model_hashaggs
        # A traced run feeds the store per-operator actuals, which the
        # estimator then answers from.
        db.sql(sql, config=EngineConfig(collect_trace=True))
        assert len(db.feedback) == 1
        executed = db.sql(sql).dags[0].operator_names()
        assert executed.count("HASHAGG") == calibrated_hashaggs
        explained = db.sql(f"EXPLAIN LOLEPOP {sql}").batch.to_pydict()["plan"]
        analyzed = db.sql(f"EXPLAIN ANALYZE {sql}").dags
        assert _legend("\n".join(explained)) == executed
        assert _legend(db.explain_lolepop(sql)) == executed
        assert _legend(db.verify_plan(sql)) == executed
        assert [dag.operator_names() for dag in analyzed] == [executed]
