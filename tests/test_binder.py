"""Tests for semantic analysis: plan shapes, normalization, decomposition."""

import hashlib
import statistics

import pytest

from repro import aggregates
from repro.compgraph.functions import LOWERINGS
from repro.errors import BindError, NotSupportedError
from repro.expr.nodes import ColumnRef
from repro.logical import Aggregate, Filter, Join, JoinKind, Limit, Project, Sort, UnionAll, Window
from repro.sql import bind, parse_sql
from repro.storage import Catalog
from repro.types import DataType


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.create_table(
        "r", {"a": "int64", "b": "float64", "c": "float64", "d": "date", "s": "string"}
    )
    cat.create_table("m", {"a": "int64", "v": "int64"})
    return cat


def plan_of(catalog, sql):
    return bind(parse_sql(sql), catalog)


def find(plan, kind):
    """First node of the given type in a pre-order walk."""
    if isinstance(plan, kind):
        return plan
    for child in plan.children:
        found = find(child, kind)
        if found is not None:
            return found
    return None


class TestNormalization:
    def test_aggregate_args_are_column_refs(self, catalog):
        plan = plan_of(catalog, "SELECT a, sum(b * 2) FROM r GROUP BY a")
        agg = find(plan, Aggregate)
        assert all(
            isinstance(arg, ColumnRef)
            for call in agg.aggregates
            for arg in call.args
        )
        # The child projection computes the argument expression.
        child = agg.child
        assert isinstance(child, Project)
        assert any(not isinstance(e, ColumnRef) for _, e in child.items)

    def test_group_keys_are_columns(self, catalog):
        plan = plan_of(catalog, "SELECT a + 1, count(*) FROM r GROUP BY a + 1")
        agg = find(plan, Aggregate)
        assert agg.group_names == ["_g0"]

    def test_shared_subaggregates(self, catalog):
        """avg and var_pop share SUM/COUNT (paper Figure 3 query 0)."""
        plan = plan_of(
            catalog, "SELECT a, avg(b), var_pop(b), sum(b), count(b) FROM r GROUP BY a"
        )
        agg = find(plan, Aggregate)
        # sum(b), count(b), sum(b*b): exactly three primitive aggregates.
        assert len(agg.aggregates) == 3
        funcs = sorted(c.func for c in agg.aggregates)
        assert funcs == ["count", "sum", "sum"]

    def test_duplicate_aggregates_interned(self, catalog):
        plan = plan_of(catalog, "SELECT sum(b), sum(b) + 1 FROM r GROUP BY a")
        agg = find(plan, Aggregate)
        assert len(agg.aggregates) == 1


class TestDecomposition:
    def test_median_is_percentile_cont(self, catalog):
        plan = plan_of(catalog, "SELECT median(b) FROM r GROUP BY a")
        agg = find(plan, Aggregate)
        assert agg.aggregates[0].func == "percentile_cont"
        assert agg.aggregates[0].fraction == 0.5

    def test_mad_builds_window_stage(self, catalog):
        plan = plan_of(catalog, "SELECT mad(b) FROM r GROUP BY a")
        window = find(plan, Window)
        assert window is not None
        assert window.calls[0].func == "percentile_cont"
        assert [r.name for r in window.calls[0].partition_by] == ["a"]

    def test_mssd_builds_lead_window(self, catalog):
        plan = plan_of(
            catalog, "SELECT mssd(b) WITHIN GROUP (ORDER BY d) FROM r GROUP BY a"
        )
        window = find(plan, Window)
        assert window.calls[0].func == "lead"
        agg = find(plan, Aggregate)
        assert sorted(c.func for c in agg.aggregates) == ["count", "sum"]

    def test_nested_aggregate_becomes_window(self, catalog):
        plan = plan_of(
            catalog, "SELECT median(b - median(b)) FROM r GROUP BY a"
        )
        window = find(plan, Window)
        assert window.calls[0].func == "percentile_cont"
        assert window.calls[0].frame.is_whole_partition

    def test_window_inside_aggregate_hoisted(self, catalog):
        plan = plan_of(
            catalog,
            "SELECT sum(pow(lead(b) OVER (PARTITION BY a ORDER BY d) - b, 2)) "
            "FROM r GROUP BY a",
        )
        window = find(plan, Window)
        agg = find(plan, Aggregate)
        assert window is not None and agg is not None
        # Window sits below the aggregation.
        assert find(agg, Window) is window

    def test_avg_window_decomposed(self, catalog):
        plan = plan_of(
            catalog, "SELECT avg(b) OVER (PARTITION BY a ORDER BY d) FROM r"
        )
        window = find(plan, Window)
        assert sorted(c.func for c in window.calls) == ["count", "sum"]

    # Digests of repr(LogicalPlan.key()): the plan cache, the feedback store
    # and query records key on these, so a lowering edit must not move them.
    @pytest.mark.parametrize("sql, digest", [
        ("SELECT avg(b) FROM r GROUP BY a", "543efc37cc4d9617"),
        ("SELECT avg(DISTINCT b) FROM r GROUP BY a", "c101e553581d0e75"),
        ("SELECT var_pop(b) FROM r GROUP BY a", "c25f48fa1113bdbd"),
        ("SELECT var_samp(b) FROM r GROUP BY a", "3b740c4c8dbd5cea"),
        ("SELECT stddev_pop(b) FROM r GROUP BY a", "e08fe3d8671fde11"),
        ("SELECT stddev_samp(b) FROM r GROUP BY a", "6347d7ee02a8343e"),
        ("SELECT mad(b) FROM r GROUP BY a", "d3c54da6e7c3b9ab"),
        ("SELECT mad() WITHIN GROUP (ORDER BY b) FROM r GROUP BY a", "d3c54da6e7c3b9ab"),
        ("SELECT mssd(b) FROM r GROUP BY a", "070f3d99408c2f49"),
        ("SELECT mssd(b) WITHIN GROUP (ORDER BY d DESC) FROM r GROUP BY a",
         "a51891827df3ba51"),
        ("SELECT avg(b), var_pop(b), stddev_samp(b) FROM r", "09aa42a608d1569f"),
        ("SELECT avg(b) OVER (PARTITION BY a ORDER BY d) FROM r", "d9a6aadcf3686865"),
        ("SELECT avg(b) OVER (PARTITION BY a ORDER BY d "
         "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM r", "bfbff5f726ff7b68"),
        # Reachable from SQL only through the registry.
        ("SELECT iqr(b) FROM r GROUP BY a", "0be01cefc6a2f02b"),
        ("SELECT kurtosis(b) FROM r GROUP BY a", "44b9667aa404e2ea"),
        ("SELECT skewness(b) FROM r GROUP BY a", "bf3df3320137340d"),
        ("SELECT central_moment(b, 3) FROM r GROUP BY a", "c89324bdff22459f"),
        ("SELECT var_samp(b) OVER (PARTITION BY a) FROM r", "820d902733cc2e86"),
    ])
    def test_composed_plan_key_pinned(self, catalog, sql, digest):
        key = repr(plan_of(catalog, sql).key())
        assert hashlib.sha256(key.encode()).hexdigest()[:16] == digest

    def test_composed_aggregates_share_primitives(self, catalog):
        agg = find(
            plan_of(catalog, "SELECT avg(b), var_pop(b), stddev_samp(b) FROM r"),
            Aggregate,
        )
        assert [c.func for c in agg.aggregates] == ["sum", "count", "sum"]

    @pytest.mark.parametrize("sql", [
        "SELECT mad(b) OVER (PARTITION BY a) FROM r",
        "SELECT mssd(b) OVER (PARTITION BY a) FROM r",
        "SELECT kurtosis(b) OVER () FROM r",
        "SELECT central_moment(b, 2) OVER () FROM r",
        "SELECT avg(DISTINCT b) OVER () FROM r",
        "SELECT mad(DISTINCT b) FROM r",
    ])
    def test_unsupported_composed_forms(self, catalog, sql):
        with pytest.raises(NotSupportedError):
            plan_of(catalog, sql)

    def test_moment_order_must_be_an_integer_literal(self, catalog):
        with pytest.raises(BindError, match="integer literal"):
            plan_of(catalog, "SELECT central_moment(b, a) FROM r")
        with pytest.raises(BindError, match="arguments"):
            plan_of(catalog, "SELECT central_moment(b) FROM r")


class TestDistinctVariance:
    """``var_*(DISTINCT x)`` must not dedup on x*x: over {-1, 1, 1, 3} that
    merges -1 with 1. The pre-grouping dedups on a call's own argument, so
    the variance family refuses DISTINCT and names the subquery rewrite,
    which is checked here against ``statistics`` over ``set(x)``."""

    X = {1: [-1, 1, 1, 3, None], 2: [2, 2, None, 5]}

    @pytest.fixture
    def db(self):
        from repro import Database

        database = Database()
        database.create_table("t", {"g": "int64", "x": "int64"})
        rows = [(g, x) for g, xs in self.X.items() for x in xs]
        database.insert("t", {"g": [g for g, _ in rows], "x": [x for _, x in rows]})
        return database

    @pytest.mark.parametrize("func", ["var_pop", "var_samp", "stddev_pop", "stddev_samp"])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_refused_with_the_rewrite(self, db, func, grouped):
        group = " GROUP BY g" if grouped else ""
        with pytest.raises(NotSupportedError, match="SELECT DISTINCT subquery"):
            db.sql(f"SELECT {func}(DISTINCT x) FROM t{group}")

    @pytest.mark.parametrize("func, reference", [
        ("var_pop", statistics.pvariance),
        ("var_samp", statistics.variance),
        ("stddev_pop", statistics.pstdev),
        ("stddev_samp", statistics.stdev),
    ])
    def test_rewrite_matches_python(self, db, func, reference):
        def distinct(values):
            return {x for x in values if x is not None}

        everything = [x for xs in self.X.values() for x in xs]
        (value,), = db.sql(
            f"SELECT {func}(x) FROM (SELECT DISTINCT x FROM t) AS d"
        ).rows()
        assert value == pytest.approx(reference(distinct(everything)))
        rows = db.sql(
            f"SELECT g, {func}(x) FROM (SELECT DISTINCT g, x FROM t) AS d "
            "GROUP BY g ORDER BY g"
        ).rows()
        assert rows == [
            (g, pytest.approx(reference(distinct(xs)))) for g, xs in self.X.items()
        ]

    def test_avg_distinct_still_dedups_its_argument(self, db):
        rows = db.sql("SELECT g, avg(DISTINCT x) FROM t GROUP BY g ORDER BY g").rows()
        assert rows == [(1, 1.0), (2, 3.5)]


class TestWindowComposed:
    """Composed aggregates under OVER run their registered lowering with
    every primitive aggregate a window over the call's clause."""

    def test_variance_over_partition_matches_python(self):
        from repro import Database

        db = Database()
        db.create_table("t", {"g": "int64", "o": "int64", "x": "float64"})
        xs = {1: [1.0, 4.0, None, 2.5], 2: [3.0]}
        rows = [(g, x) for g, values in xs.items() for x in values]
        db.insert("t", {
            "g": [g for g, _ in rows], "o": list(range(len(rows))),
            "x": [x for _, x in rows],
        })
        out = db.sql(
            "SELECT g, o, avg(x) OVER (PARTITION BY g), "
            "var_samp(x) OVER (PARTITION BY g), "
            "stddev_pop(x) OVER (PARTITION BY g) FROM t ORDER BY o"
        ).rows()
        for g, _, avg, var, std in out:
            present = [x for x in xs[g] if x is not None]
            assert avg == pytest.approx(statistics.mean(present))
            if len(present) > 1:
                assert var == pytest.approx(statistics.variance(present))
            else:
                assert var is None
            assert std == pytest.approx(statistics.pstdev(present))


class TestJoins:
    def test_equi_keys_extracted(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r JOIN m ON r.a = m.a")
        join = find(plan, Join)
        assert join.left_keys == ["a"] and join.right_keys == ["a"]

    def test_side_filters_pushed(self, catalog):
        plan = plan_of(
            catalog, "SELECT v FROM r JOIN m ON r.a = m.a AND v > 3 AND b < 1"
        )
        join = find(plan, Join)
        assert isinstance(join.left, Filter)   # b < 1
        assert isinstance(join.right, Filter)  # v > 3

    def test_residual_becomes_post_filter(self, catalog):
        plan = plan_of(
            catalog, "SELECT v FROM r JOIN m ON r.a = m.a AND b < v"
        )
        assert isinstance(find(plan, Project).child, Filter)

    def test_exists_becomes_semi_join(self, catalog):
        plan = plan_of(
            catalog,
            "SELECT b FROM r WHERE EXISTS (SELECT 1 FROM m WHERE m.a = r.a AND v > 0)",
        )
        join = find(plan, Join)
        assert join.kind is JoinKind.SEMI
        assert isinstance(join.right, Filter)

    @pytest.mark.parametrize("engine", ["lolepop", "naive"])
    def test_exists_outer_only_conjunct_filters_the_outer_side(self, engine):
        """A conjunct over the outer query alone filters it below the SEMI
        join: the rows are those of the filter written outside the EXISTS."""
        from repro import Database

        db = Database()
        db.create_table("t", {"g": "int64", "v": "int64"})
        db.insert("t", {"g": [1, 1, 2, 3], "v": [10, 20, 30, 40]})
        db.create_table("m", {"a": "int64"})
        db.insert("m", {"a": [1, 2, 2]})
        inside = db.sql(
            "SELECT g, v FROM t WHERE EXISTS "
            "(SELECT 1 FROM m WHERE m.a = t.g AND t.v > 15)", engine=engine,
        ).rows()
        outside = db.sql(
            "SELECT g, v FROM t WHERE t.v > 15 AND EXISTS "
            "(SELECT 1 FROM m WHERE m.a = t.g)", engine=engine,
        ).rows()
        assert sorted(inside) == sorted(outside) == [(1, 20), (2, 30)]

    @pytest.mark.parametrize("engine", ["lolepop", "naive"])
    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("constant", ["1 = 1", "FALSE"])
    def test_exists_constant_conjunct_filters_the_subquery(
        self, engine, negate, constant
    ):
        """A conjunct that names no column filters the subquery's rows,
        under EXISTS and NOT EXISTS alike."""
        from repro import Database

        db = Database()
        db.create_table("t", {"g": "int64", "v": "int64"})
        db.insert("t", {"g": [1, 1, 2, 3], "v": [10, 20, 30, 40]})
        db.create_table("m", {"a": "int64"})
        db.insert("m", {"a": [1, 2, 2]})
        exists = "NOT EXISTS" if negate else "EXISTS"
        rows = db.sql(
            f"SELECT g, v FROM t WHERE {exists} "
            f"(SELECT 1 FROM m WHERE m.a = t.g AND {constant})", engine=engine,
        ).rows()
        matched = {(1, 10), (1, 20), (2, 30)} if constant == "1 = 1" else set()
        expected = {(1, 10), (1, 20), (2, 30), (3, 40)} - matched if negate else matched
        assert sorted(rows) == sorted(expected)

    def test_not_exists_becomes_anti_join(self, catalog):
        plan = plan_of(
            catalog,
            "SELECT b FROM r WHERE NOT EXISTS (SELECT 1 FROM m WHERE m.a = r.a)",
        )
        assert find(plan, Join).kind is JoinKind.ANTI

    def test_join_without_equality_rejected(self, catalog):
        with pytest.raises(NotSupportedError):
            plan_of(catalog, "SELECT 1 FROM r JOIN m ON b < v")

    @pytest.mark.parametrize("engine", ["lolepop", "naive"])
    @pytest.mark.parametrize(
        "comma, explicit",
        [
            ("SELECT x, w FROM a, b WHERE x = y", "SELECT x, w FROM a JOIN b ON x = y"),
            (
                "SELECT x, w, u FROM a, b, c WHERE x = y AND c.z = b.y AND v > 1 AND u + w > 38",
                "SELECT x, w, u FROM a JOIN b ON x = y JOIN c ON c.z = b.y "
                "WHERE v > 1 AND u + w > 38",
            ),
            (
                "SELECT x, u FROM a, b, c WHERE x = y AND c.z = a.x "
                "AND EXISTS (SELECT 1 FROM b WHERE b.y = a.x)",
                "SELECT x, u FROM a JOIN b ON x = y JOIN c ON c.z = a.x "
                "WHERE EXISTS (SELECT 1 FROM b WHERE b.y = a.x)",
            ),
        ],
    )
    def test_comma_join_takes_its_keys_from_where(self, engine, comma, explicit):
        """A comma join's keys are the WHERE conjuncts over its two sides; it
        returns the rows of its ``JOIN ... ON`` spelling (the naive oracle
        binds both through the same code, so the spellings are compared)."""
        from repro import Database

        db = Database()
        db.create_table("a", {"x": "int64", "v": "float64"})
        db.insert("a", {"x": [1, 2, 3, 3], "v": [1.0, 2.0, 3.0, 4.0]})
        db.create_table("b", {"y": "int64", "w": "float64"})
        db.insert("b", {"y": [1, 3, 3, 5], "w": [10.0, 30.0, 31.0, 50.0]})
        db.create_table("c", {"z": "int64", "u": "int64"})
        db.insert("c", {"z": [1, 3, 5], "u": [7, 8, 9]})
        rows = sorted(db.sql(comma, engine=engine).rows())
        assert rows and rows == sorted(db.sql(explicit, engine=engine).rows())

    def test_comma_join_keys_and_filters(self, catalog):
        plan = plan_of(catalog, "SELECT v FROM r, m WHERE r.a = m.a AND v > 3 AND b < v")
        join = find(plan, Join)
        assert join.left_keys == ["a"] and join.right_keys == ["a"]
        assert isinstance(join.right, Filter)  # v > 3
        assert isinstance(find(plan, Project).child, Filter)  # b < v

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("SELECT v FROM r, m", "equality key"),
            ("SELECT v FROM r, m WHERE b < v", "equality key"),
            (
                "SELECT b FROM r WHERE EXISTS (SELECT 1 FROM m, m AS n WHERE m.a = n.a "
                "AND m.a = r.a)",
                "comma joins",
            ),
        ],
    )
    def test_comma_join_refusals(self, catalog, sql, message):
        with pytest.raises(NotSupportedError, match=message):
            plan_of(catalog, sql)

    def test_comma_join_name_is_ambiguous_over_the_whole_from(self, catalog):
        """``v`` is in n and m: the first comma join sees only n, but the
        statement's FROM has both."""
        with pytest.raises(BindError, match="ambiguous"):
            plan_of(catalog, "SELECT b FROM m AS n, r, m WHERE n.a = r.a AND r.a = m.a AND v > 3")

    def test_self_join_renames(self, catalog):
        plan = plan_of(
            catalog, "SELECT m1.v, m2.v FROM m m1 JOIN m m2 ON m1.a = m2.a"
        )
        assert plan.schema.names() == ["v", "v_1"]


class TestOrderingAndLimits:
    def test_order_by_alias(self, catalog):
        plan = plan_of(catalog, "SELECT a, sum(b) AS s FROM r GROUP BY a ORDER BY s")
        assert isinstance(plan, Sort) and plan.keys == [("s", False)]

    def test_order_by_position(self, catalog):
        plan = plan_of(catalog, "SELECT a, b FROM r ORDER BY 2 DESC")
        assert plan.keys == [("b", True)]

    def test_order_by_position_out_of_range(self, catalog):
        with pytest.raises(BindError):
            plan_of(catalog, "SELECT a FROM r ORDER BY 5")

    def test_limit_offset(self, catalog):
        plan = plan_of(catalog, "SELECT a FROM r LIMIT 3 OFFSET 1")
        assert isinstance(plan, Limit)
        assert (plan.limit, plan.offset) == (3, 1)


class TestMisc:
    def test_date_coercion(self, catalog):
        plan = plan_of(catalog, "SELECT a FROM r WHERE d >= '1995-01-01'")
        predicate = find(plan, Filter).predicate
        from repro.expr.nodes import Literal

        assert isinstance(predicate.right, Literal)
        assert predicate.right.dtype is DataType.DATE

    def test_union_all_types_checked(self, catalog):
        with pytest.raises(Exception):
            plan_of(catalog, "SELECT a FROM r UNION ALL SELECT s FROM r")

    def test_union_all_plan(self, catalog):
        plan = plan_of(catalog, "SELECT a FROM r UNION ALL SELECT v FROM m")
        assert isinstance(plan, UnionAll)

    def test_select_star_expands(self, catalog):
        plan = plan_of(catalog, "SELECT * FROM m")
        assert plan.schema.names() == ["a", "v"]

    def test_distinct_becomes_aggregate(self, catalog):
        plan = plan_of(catalog, "SELECT DISTINCT a FROM r")
        assert isinstance(plan, Aggregate)
        assert plan.aggregates == []

    def test_grouping_sets_indices(self, catalog):
        plan = plan_of(
            catalog, "SELECT sum(b) FROM r GROUP BY GROUPING SETS ((a, s), (a))"
        )
        agg = find(plan, Aggregate)
        assert agg.grouping_sets == [("a", "s"), ("a",)]
        assert "grouping_id" in agg.schema.names()
        assert agg.grouping_id_of(("a",)) == 1
        assert agg.grouping_id_of(("a", "s")) == 0

    def test_cte_binds(self, catalog):
        plan = plan_of(
            catalog,
            "WITH t AS (SELECT a, b FROM r) SELECT a, sum(b) FROM t GROUP BY a",
        )
        assert find(plan, Aggregate) is not None


class TestBindErrors:
    def test_unknown_column(self, catalog):
        with pytest.raises(BindError):
            plan_of(catalog, "SELECT zz FROM r")

    def test_unknown_table(self, catalog):
        with pytest.raises(Exception):
            plan_of(catalog, "SELECT 1 FROM nope")

    def test_bare_column_without_group(self, catalog):
        with pytest.raises(BindError):
            plan_of(catalog, "SELECT b, sum(b) FROM r GROUP BY a")

    def test_window_requires_over(self, catalog):
        with pytest.raises(BindError):
            plan_of(catalog, "SELECT row_number() FROM r")

    def test_percentile_requires_within_group(self, catalog):
        with pytest.raises(BindError):
            plan_of(catalog, "SELECT percentile_disc(0.5) FROM r GROUP BY a")

    def test_percentile_fraction_range(self, catalog):
        with pytest.raises(BindError):
            plan_of(
                catalog,
                "SELECT percentile_disc(1.5) WITHIN GROUP (ORDER BY b) "
                "FROM r GROUP BY a",
            )

    @pytest.mark.parametrize("call", [
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY b)",
        "mode() WITHIN GROUP (ORDER BY b DESC)",
        "median(b)",
    ])
    def test_ordered_set_window_refuses_over_order_by(self, catalog, call):
        """An ordered-set window sorts by its WITHIN GROUP key alone; an OVER
        ORDER BY beside it is refused before anything runs."""
        with pytest.raises(NotSupportedError, match="ORDER BY"):
            plan_of(catalog, f"SELECT {call} OVER (PARTITION BY a ORDER BY c) FROM r")

    def test_within_group_direction_is_part_of_a_window_call(self, catalog):
        """The two directions are two computations: they do not intern into
        one column, and neither reaches the OVER clause's ORDER BY."""
        plan = plan_of(
            catalog,
            "SELECT percentile_disc(0.5) WITHIN GROUP (ORDER BY b) OVER (PARTITION BY a), "
            "percentile_disc(0.5) WITHIN GROUP (ORDER BY b DESC) OVER (PARTITION BY a) FROM r",
        )
        calls = find(plan, Window).calls
        assert [call.within_descending for call in calls] == [False, True]
        assert all(call.order_by == [] for call in calls)

    @pytest.mark.parametrize(
        "name", sorted({*aggregates._SPECS, *LOWERINGS} - {"count"})
    )
    def test_only_count_takes_star_over(self, catalog, name):
        """One rule for '*' with and without OVER: count(*) counts rows, any
        other f(*) is an error."""
        with pytest.raises(BindError, match=r"\(\*\) is not valid"):
            plan_of(catalog, f"SELECT {name}(*) OVER (PARTITION BY a) FROM r")

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(BindError):
            plan_of(catalog, "SELECT a FROM r WHERE sum(b) > 1")

    def test_ambiguous_column(self, catalog):
        with pytest.raises(BindError):
            plan_of(catalog, "SELECT a FROM r JOIN m ON r.a = m.a WHERE a > 0")

    def test_ambiguous_column_in_on_clause(self, catalog):
        """A name both sides of a join have must be qualified in its ON
        clause too, not only above the join."""
        with pytest.raises(BindError, match="ambiguous"):
            plan_of(catalog, "SELECT b FROM r JOIN m ON a = v")


class TestDomainErrors:
    """An argument outside a primitive's declared domain is a bind error,
    so every engine refuses it before running (composed aggregates inherit
    it from the primitives they lower to); arguments inside it bind to the
    declared result type."""

    @pytest.fixture
    def db(self):
        from repro import Database

        database = Database()
        database.create_table(
            "t",
            {"g": "int64", "v": "int64", "f": "float64", "b": "bool",
             "d": "date", "s": "string"},
        )
        database.insert("t", {
            "g": [1, 1, 2], "v": [1, 2, 3], "f": [0.5, 1.5, 2.5],
            "b": [True, False, True], "d": ["2020-01-01", "2020-01-02", None],
            "s": ["x", "y", None],
        })
        return database

    @pytest.mark.parametrize("sql", [
        "SELECT sum(b) FROM t",
        "SELECT g, sum(d) FROM t GROUP BY g",
        "SELECT median(d) FROM t",
        "SELECT g, percentile_cont(0.5) WITHIN GROUP (ORDER BY s) FROM t GROUP BY g",
        "SELECT avg(b) FROM t",
        "SELECT bool_and(v) FROM t",
        "SELECT sum(s) OVER (PARTITION BY g) FROM t",
        "SELECT percentile_cont(0.5) WITHIN GROUP (ORDER BY d) OVER (PARTITION BY g) FROM t",
    ])
    @pytest.mark.parametrize("engine", ["lolepop", "monolithic", "naive"])
    def test_outside_the_domain(self, db, sql, engine):
        with pytest.raises(BindError, match="argument, not"):
            db.sql(sql, engine=engine)

    @pytest.mark.parametrize("sql, dtype", [
        ("SELECT sum(v) FROM t", DataType.INT64),
        ("SELECT sum(f) FROM t", DataType.FLOAT64),
        ("SELECT min(b) FROM t", DataType.BOOL),
        ("SELECT max(d) FROM t", DataType.DATE),
        ("SELECT median(v) FROM t", DataType.FLOAT64),
        ("SELECT percentile_disc(0.5) WITHIN GROUP (ORDER BY s) FROM t", DataType.STRING),
        ("SELECT mode() WITHIN GROUP (ORDER BY b) FROM t", DataType.BOOL),
        ("SELECT count(s) FROM t", DataType.INT64),
        ("SELECT any(d) OVER (PARTITION BY g) FROM t", DataType.DATE),
    ])
    def test_inside_the_domain(self, db, sql, dtype):
        assert db.plan(sql).schema.types() == [dtype]
        result = db.sql(sql)
        assert [column.dtype for column in result.batch.columns] == [dtype]
