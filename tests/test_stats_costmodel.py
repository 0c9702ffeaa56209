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
    database = Database()
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
        before = cache.table_stats("t").rows
        db.insert("t", {"k": [1], "few": [1], "many": [1], "x": [0.5]})
        after = cache.table_stats("t").rows
        assert after == before + 1

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


class TestCostBasedPlans:
    def plan_ops(self, db, sql, **flags):
        from repro.logical.cardinality import CardinalityEstimator
        from repro.lolepop.translate import translate_statistics
        from repro.logical import Project, Filter

        config = EngineConfig(**flags)
        node = db.plan(sql)
        while isinstance(node, (Project, Filter)):
            node = node.children[0]
        estimator = CardinalityEstimator(StatisticsCache(db.catalog))
        dag = translate_statistics(node, lambda p: [], config, estimator)
        return dag.operator_names()

    def test_high_cardinality_distinct_uses_ordagg(self, db):
        sql = (
            "SELECT few, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
            "count(DISTINCT many) FROM t GROUP BY few"
        )
        heuristic = self.plan_ops(db, sql)
        assert heuristic.count("HASHAGG") == 2  # hash pair by default
        priced = self.plan_ops(db, sql, cost_based_distinct=True)
        assert priced.count("HASHAGG") == 0
        assert priced.count("ORDAGG") == 2  # extra dedup ORDAGG

    def test_low_cardinality_distinct_keeps_hash(self, db):
        sql = (
            "SELECT k, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
            "sum(DISTINCT few) FROM t GROUP BY k"
        )
        priced = self.plan_ops(db, sql, cost_based_distinct=True)
        assert priced.count("HASHAGG") == 2

    def test_results_unchanged(self, db):
        sql = (
            "SELECT few, percentile_disc(0.5) WITHIN GROUP (ORDER BY x), "
            "count(DISTINCT many), sum(x) FROM t GROUP BY few"
        )
        config = EngineConfig(cost_based_distinct=True)
        assert_engines_agree(db, sql, engines=["lolepop"], config=config)
