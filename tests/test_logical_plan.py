"""Direct unit tests of logical plan nodes (schema propagation, labels,
validation) and a property test of the MERGE operator's two-way merge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import AggregateCall, WindowCall
from repro.errors import PlanError
from repro.expr.nodes import BinaryOp, ColumnRef, Literal
from repro.logical import (
    Aggregate,
    Filter,
    Join,
    JoinKind,
    Limit,
    Project,
    Scan,
    Sort,
    UnionAll,
    Window,
    explain_plan,
)
from repro.lolepop.merge_op import merge_two_sorted
from repro.storage import Batch
from repro.types import DataType, Schema

LEFT = Schema.of(("a", "int64"), ("b", "string"))
RIGHT = Schema.of(("a", "int64"), ("c", "float64"))


def scan(name="t", schema=LEFT):
    return Scan(name, schema)


class TestSchemaPropagation:
    def test_filter_keeps_schema(self):
        plan = Filter(scan(), BinaryOp(">", ColumnRef("a"), Literal(0, DataType.INT64)))
        assert plan.schema == LEFT

    def test_project_infers_types(self):
        plan = Project(scan(), [("twice", ColumnRef("a") + ColumnRef("a"))])
        assert plan.schema["twice"].dtype is DataType.INT64

    def test_inner_join_concats_and_renames(self):
        plan = Join(scan(), scan("u", RIGHT), JoinKind.INNER, ["a"], ["a"])
        assert plan.schema.names() == ["a", "b", "a_1", "c"]

    def test_join_output_names_survive_narrowed_children(self):
        """Column pruning rebuilds a join over narrower children but keeps
        the unpruned output names: a_1 stays a_1 although the left side no
        longer carries b and re-deriving would still say a_1 — and c stays c
        even when the collision that renamed it is pruned away."""
        from repro.logical import prune_columns

        clash = Schema.of(("a", "int64"), ("b", "string"))
        join = Join(scan(), scan("u", clash), JoinKind.INNER, ["a"], ["a"])
        assert join.schema.names() == ["a", "b", "a_1", "b_1"]
        pruned = prune_columns(Project(join, [("x", ColumnRef("b_1"))]))
        assert pruned.child.schema.names() == ["a", "a_1", "b_1"]
        assert pruned.child.left.schema.names() == ["a"]
        assert [str(event) for event in pruned.rewrites] == ["prune-columns: t 2→1"]
        assert join.schema.names() == ["a", "b", "a_1", "b_1"]  # input untouched

    def test_semi_join_keeps_left_schema(self):
        plan = Join(scan(), scan("u", RIGHT), JoinKind.SEMI, ["a"], ["a"])
        assert plan.schema == LEFT

    def test_join_key_arity_checked(self):
        with pytest.raises(PlanError):
            Join(scan(), scan("u", RIGHT), JoinKind.INNER, ["a"], ["a", "c"])

    def test_aggregate_output_schema(self):
        agg = Aggregate(
            scan(), ["b"], [AggregateCall("total", "count", [ColumnRef("a")])]
        )
        assert agg.schema.names() == ["b", "total"]
        assert agg.schema["total"].dtype is DataType.INT64

    def test_grouping_sets_add_grouping_id(self):
        agg = Aggregate(
            scan(), ["a", "b"],
            [AggregateCall("n", "count_star", [])],
            grouping_sets=[("a", "b"), ("a",)],
        )
        assert agg.schema.names()[-1] == "grouping_id"
        assert agg.grouping_id_of(("a", "b")) == 0
        assert agg.grouping_id_of(("a",)) == 1
        assert agg.grouping_id_of(()) == 3

    def test_grouping_set_keys_validated(self):
        with pytest.raises(PlanError):
            Aggregate(
                scan(), ["a"], [], grouping_sets=[("zz",)]
            )

    def test_window_appends_columns(self):
        call = WindowCall(
            "rn", "row_number", [], partition_by=[ColumnRef("b")],
            order_by=[(ColumnRef("a"), False)],
        )
        plan = Window(scan(), [call])
        assert plan.schema.names() == ["a", "b", "rn"]

    def test_sort_validates_keys(self):
        import pytest as _pytest

        with _pytest.raises(Exception):
            Sort(scan(), [("zz", False)])

    def test_union_all_type_check(self):
        with pytest.raises(PlanError):
            UnionAll([scan(), scan("u", RIGHT)])

    def test_union_all_requires_children(self):
        with pytest.raises(PlanError):
            UnionAll([])


class TestLabels:
    def test_explain_tree_shape(self):
        inner = Join(scan(), scan("u", RIGHT), JoinKind.INNER, ["a"], ["a"])
        plan = Limit(
            Sort(
                Project(inner, [("a", ColumnRef("a"))]),
                [("a", True)],
            ),
            5, 2,
        )
        text = explain_plan(plan)
        assert "LIMIT 5 OFFSET 2" in text
        assert "SORT BY a DESC" in text
        assert "INNER JOIN ON a=a" in text
        assert text.count("SCAN") == 2

    def test_aggregate_label_shows_sets(self):
        agg = Aggregate(
            scan(), ["a"], [], grouping_sets=[("a",), ()]
        )
        assert "GROUPING SETS" in agg.label()


MERGE_SCHEMA = Schema.of(("k", "int64"), ("tag", "string"))


def sorted_batch(values, tag):
    ordered = sorted(values)
    return Batch.from_pydict(
        MERGE_SCHEMA,
        {"k": ordered, "tag": [f"{tag}{i}" for i in range(len(ordered))]},
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20), max_size=30),
    st.lists(st.integers(-20, 20), max_size=30),
)
def test_merge_two_sorted_property(left_values, right_values):
    """Property: the two-way merge equals sorting the concatenation, and is
    stable (left rows before equal right rows)."""
    left = sorted_batch(left_values, "L")
    right = sorted_batch(right_values, "R")
    merged = merge_two_sorted(left, right, [("k", False)])
    keys = [k for k, _ in merged.rows()]
    assert keys == sorted(left_values + right_values)
    # Stability: among equal keys, L-tags precede R-tags.
    for key in set(left_values) & set(right_values):
        tags = [tag for k, tag in merged.rows() if k == key]
        first_r = next((i for i, t in enumerate(tags) if t.startswith("R")), len(tags))
        assert all(t.startswith("R") for t in tags[first_r:])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-20, 20), max_size=25),
    st.lists(st.integers(-20, 20), max_size=25),
)
def test_merge_descending_property(left_values, right_values):
    left = Batch.from_pydict(
        MERGE_SCHEMA,
        {
            "k": sorted(left_values, reverse=True),
            "tag": ["L"] * len(left_values),
        },
    )
    right = Batch.from_pydict(
        MERGE_SCHEMA,
        {
            "k": sorted(right_values, reverse=True),
            "tag": ["R"] * len(right_values),
        },
    )
    merged = merge_two_sorted(left, right, [("k", True)])
    keys = [k for k, _ in merged.rows()]
    assert keys == sorted(left_values + right_values, reverse=True)
