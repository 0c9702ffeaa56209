"""Tests for the planner API and Low-Level-Functions (paper §3.4)."""

import numpy as np
import pytest

from repro import Database
from repro.compgraph import (
    AggregatePlanner,
    computation_graph,
    functions as F,
    render_computation_graph,
)
from repro.errors import BindError
from repro.lolepop import LolepopEngine


@pytest.fixture
def db():
    database = Database(num_threads=2)
    database.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
    rng = np.random.default_rng(4)
    n = 300
    database.insert(
        "t",
        {
            "g": rng.integers(0, 4, n),
            "x": rng.random(n).round(4),
            "o": rng.permutation(n),
        },
    )
    return database


def run(db, plan):
    return LolepopEngine(db.catalog, db.config).run(plan)


def group_values(db):
    out = {}
    gs = db.table("t").column("g").values
    xs = db.table("t").column("x").values
    os_ = db.table("t").column("o").values
    for g in np.unique(gs):
        mask = gs == g
        order = np.argsort(os_[mask], kind="stable")
        out[int(g)] = xs[mask][order]
    return out


class TestPlannerBasics:
    def test_simple_aggregate(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        plan = p.finish({"g": p.key("g"), "s": p.aggregate("sum", p.value("x"))})
        rows = dict(run(db, plan).rows())
        values = group_values(db)
        for g, expected in values.items():
            assert rows[g] == pytest.approx(expected.sum())

    def test_interning_shares_aggregates(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        x = p.value("x")
        F.avg(p, x)
        F.var_pop(p, x)
        # avg: sum+count; var adds only sum(x*x): 3 total.
        assert len(p.aggregates) == 3

    def test_unknown_column_rejected(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        with pytest.raises(Exception):
            p.value("zz")

    def test_key_must_be_group_key(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        with pytest.raises(BindError):
            p.key("x")

    def test_node_arithmetic(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        s = p.aggregate("sum", p.value("x"))
        c = p.aggregate("count", p.value("x"))
        plan = p.finish({"g": p.key("g"), "m": (s / c) * 2 - 1})
        result = run(db, plan)
        assert result.schema.names() == ["g", "m"]


class TestLowLevelFunctions:
    def numpy_groups(self, db):
        return group_values(db)

    def test_var_and_stddev(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        plan = p.finish({
            "g": p.key("g"),
            "vp": F.var_pop(p, "x"),
            "vs": F.var_samp(p, "x"),
            "sd": F.stddev_pop(p, "x"),
        })
        rows = {r[0]: r[1:] for r in run(db, plan).rows()}
        for g, values in self.numpy_groups(db).items():
            assert rows[g][0] == pytest.approx(values.var())
            assert rows[g][1] == pytest.approx(values.var(ddof=1))
            assert rows[g][2] == pytest.approx(values.std())

    def test_median_and_iqr(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        plan = p.finish({
            "g": p.key("g"),
            "med": F.median(p, "x"),
            "iqr": F.iqr(p, "x"),
        })
        rows = {r[0]: r[1:] for r in run(db, plan).rows()}
        for g, values in self.numpy_groups(db).items():
            assert rows[g][0] == pytest.approx(np.median(values))
            assert rows[g][1] == pytest.approx(
                np.percentile(values, 75) - np.percentile(values, 25)
            )

    def test_mad(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        plan = p.finish({"g": p.key("g"), "mad": F.mad(p, "x")})
        rows = dict(run(db, plan).rows())
        for g, values in self.numpy_groups(db).items():
            expected = np.median(np.abs(values - np.median(values)))
            assert rows[g] == pytest.approx(expected)

    def test_mssd_matches_definition(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        plan = p.finish({
            "g": p.key("g"),
            "mssd": F.mssd(p, p.value("x"), p.value("o")),
        })
        rows = dict(run(db, plan).rows())
        for g, ordered in self.numpy_groups(db).items():
            diffs = np.diff(ordered)
            expected = np.sqrt((diffs**2).sum() / len(diffs))
            assert rows[g] == pytest.approx(expected)

    def test_moments_kurtosis_skewness(self, db):
        p = AggregatePlanner(db.plan("SELECT * FROM t"), group_by=["g"])
        plan = p.finish({
            "g": p.key("g"),
            "kurt": F.kurtosis(p, "x"),
            "skew": F.skewness(p, "x"),
        })
        rows = {r[0]: r[1:] for r in run(db, plan).rows()}
        for g, values in self.numpy_groups(db).items():
            centered = values - values.mean()
            m2 = (centered**2).mean()
            assert rows[g][0] == pytest.approx((centered**4).mean() / m2**2 - 3)
            assert rows[g][1] == pytest.approx(
                (centered**3).mean() / m2**1.5
            )


class TestComputationGraph:
    def test_graph_shows_sharing(self, db):
        plan = db.plan("SELECT g, avg(x), var_pop(x) FROM t GROUP BY g")
        nodes = computation_graph(plan)
        aggregates = [n for n in nodes if n.kind == "aggregate"]
        assert len(aggregates) == 3  # sum, count, sum of squares

    def test_graph_includes_windows(self, db):
        plan = db.plan("SELECT g, mad(x) FROM t GROUP BY g")
        kinds = {n.kind for n in computation_graph(plan)}
        assert "window" in kinds and "aggregate" in kinds

    def test_render(self, db):
        text = render_computation_graph(db.plan("SELECT g, mad(x) FROM t GROUP BY g"))
        assert "window" in text and "aggregate" in text

    def test_render_non_aggregate(self, db):
        assert "no aggregation region" in render_computation_graph(
            db.plan("SELECT g FROM t")
        )


def load_example_range_ratio():
    """``plan_range_ratio`` as ``examples/extensibility.py`` defines it."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "extensibility_example",
        os.path.join(os.path.dirname(__file__), "..", "examples", "extensibility.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.plan_range_ratio


@pytest.fixture
def range_ratio():
    """``range_ratio`` registered for SQL for the duration of one test."""
    F.register("range_ratio", load_example_range_ratio())
    try:
        yield
    finally:
        F.LOWERINGS.pop("range_ratio")


def quantile_spread(values):
    return np.percentile(values, 75) - np.percentile(values, 25)


class TestSqlRegistry:
    """Composed aggregates reach SQL through ``compgraph.functions.LOWERINGS``
    — the built-in statistics and the ones a user registers at run time."""

    TEMPLATE = "SELECT g, range_ratio(x) FROM t WHERE o >= {} GROUP BY g ORDER BY g"

    def expected_range_ratio(self, db, threshold):
        gs, xs, os_ = (db.table("t").column(c).values for c in ("g", "x", "o"))
        keep = os_ >= threshold
        out = []
        for g in np.unique(gs[keep]):
            values = xs[keep & (gs == g)]
            out.append((int(g), pytest.approx(np.ptp(values) / quantile_spread(values))))
        return out

    def test_registered_aggregate_direct(self, db, range_ratio):
        assert db.sql(self.TEMPLATE.format(10)).rows() == self.expected_range_ratio(db, 10)

    def test_registered_aggregate_through_the_service(self, db, range_ratio):
        from repro.server import QueryService, ServiceConfig

        with QueryService(db, ServiceConfig()) as service:
            session = service.session()
            for threshold in (10, 40):
                rows = session.execute(self.TEMPLATE.format(threshold), timeout=60).rows()
                assert rows == self.expected_range_ratio(db, threshold)

    def test_registered_aggregate_as_a_template_hit(self, db, range_ratio):
        db.sql(self.TEMPLATE.format(10))
        _, hit = db._prepare_cached(self.TEMPLATE.format(25))
        assert hit
        assert db.sql(self.TEMPLATE.format(25)).rows() == self.expected_range_ratio(db, 25)

    def test_register_refuses_a_defined_name(self):
        for name in ("avg", "sum", "lag", "sqrt"):
            with pytest.raises(BindError, match="already defined"):
                F.register(name, F.avg)

    @pytest.fixture
    def sparse(self):
        """Groups with NULLs (0, 3), one row (1), one value and a NULL (2)."""
        database = Database()
        database.create_table("u", {"g": "int64", "x": "float64"})
        rng = np.random.default_rng(8)
        groups = {
            0: list(rng.normal(size=40).round(3)) + [None, None],
            1: [2.5],
            2: [None, -1.0],
            3: [1.0, None, 4.0, 4.0, 9.5, -2.0],
        }
        rows = [(g, x) for g, xs in groups.items() for x in xs]
        database.insert("u", {"g": [g for g, _ in rows], "x": [x for _, x in rows]})
        return database, {
            g: np.array([x for x in xs if x is not None]) for g, xs in groups.items()
        }

    def test_moments_from_sql_match_numpy(self, sparse):
        db, groups = sparse
        rows = db.sql(
            "SELECT g, iqr(x), central_moment(x, 3), kurtosis(x), skewness(x) "
            "FROM u GROUP BY g ORDER BY g"
        ).rows()
        assert [row[0] for row in rows] == sorted(groups)
        for g, iqr, m3, kurt, skew in rows:
            values = groups[g]
            centered = values - values.mean()
            m2 = (centered**2).mean()
            assert iqr == pytest.approx(quantile_spread(values))
            assert m3 == pytest.approx((centered**3).mean())
            if m2 == 0:  # one value: the standardized moments are undefined
                assert kurt is None and skew is None
            else:
                assert kurt == pytest.approx((centered**4).mean() / m2**2 - 3)
                assert skew == pytest.approx((centered**3).mean() / m2**1.5)

    def test_moment_order_is_part_of_the_plan_cache_key(self, sparse):
        db, groups = sparse
        template = "SELECT g, central_moment(x, {}) FROM u GROUP BY g ORDER BY g"
        for k in (3, 4):
            _, hit = db._prepare_cached(template.format(k))
            assert not hit
            rows = db.sql(template.format(k)).rows()
            assert rows == [
                (g, pytest.approx(((v - v.mean()) ** k).mean()))
                for g, v in sorted(groups.items())
            ]
        assert len(db.plan_cache) == 2
