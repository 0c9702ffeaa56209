"""Coverage for smaller corners: scalar function kernels, frame validation,
aggregate specs, explain output, and error paths."""

import datetime

import pytest

from repro import Database
from repro.aggregates import (
    AggKind,
    AggregateCall,
    FrameBound,
    FrameSpec,
    WindowCall,
    is_aggregate_name,
    is_window_name,
    lookup,
)
from repro.errors import BindError, NotSupportedError
from repro.expr import FuncCall, col, evaluate, evaluate_row, lit
from repro.storage import Batch
from repro.types import DataType, Schema


class TestScalarFunctionKernels:
    SCHEMA = Schema.of(("x", "float64"), ("n", "int64"), ("s", "string"))

    def batch(self):
        return Batch.from_pydict(
            self.SCHEMA,
            {"x": [4.0, 2.25, -1.0], "n": [7, -3, 0], "s": ["Ab", "cd", "EF"]},
        )

    def both(self, expr):
        batch = self.batch()
        vector = evaluate(expr, batch).to_pylist()
        rows = [
            {"x": x, "n": n, "s": s}
            for x, n, s in zip(*[c.to_pylist() for c in batch.columns])
        ]
        scalar = [evaluate_row(expr, row) for row in rows]
        norm = lambda v: round(v, 9) if isinstance(v, float) else v  # noqa
        assert [norm(v) for v in vector] == [norm(v) for v in scalar]
        return vector

    def test_sqrt_ln_exp(self):
        assert self.both(FuncCall("sqrt", [col("x")]))[0] == 2.0
        assert self.both(FuncCall("exp", [lit(0.0)]))[0] == 1.0
        assert self.both(FuncCall("ln", [lit(1.0)]))[0] == 0.0

    def test_floor_ceil_round_sign_mod(self):
        assert self.both(FuncCall("floor", [col("x")])) == [4.0, 2.0, -1.0]
        assert self.both(FuncCall("ceil", [col("x")])) == [4.0, 3.0, -1.0]
        assert self.both(FuncCall("round", [col("x"), lit(1)])) == [4.0, 2.2, -1.0]
        assert self.both(FuncCall("sign", [col("n")])) == [1, -1, 0]
        assert self.both(FuncCall("mod", [col("n"), lit(4)])) == [3, 1, 0]

    def test_greatest_least(self):
        assert self.both(FuncCall("greatest", [col("n"), lit(1)])) == [7, 1, 1]
        assert self.both(FuncCall("least", [col("n"), lit(1)])) == [1, -3, 0]

    def test_string_kernels(self):
        assert self.both(FuncCall("lower", [col("s")])) == ["ab", "cd", "ef"]
        assert self.both(FuncCall("upper", [col("s")])) == ["AB", "CD", "EF"]
        assert self.both(
            FuncCall("substr", [col("s"), lit(1), lit(1)])
        ) == ["A", "c", "E"]
        assert self.both(FuncCall("concat", [col("s"), lit("!")])) == [
            "Ab!", "cd!", "EF!",
        ]


class TestFrameSpec:
    def test_range_offsets_rejected(self):
        with pytest.raises(BindError):
            FrameSpec(
                FrameBound.PRECEDING, 2, FrameBound.CURRENT_ROW, 0, mode="range"
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(BindError):
            FrameSpec(mode="groups")

    def test_repr_shows_mode(self):
        assert repr(FrameSpec.running_range()).startswith("RANGE")
        assert repr(FrameSpec.running()).startswith("ROWS")

    def test_equality_includes_mode(self):
        assert FrameSpec.running() != FrameSpec.running_range()


class TestAggregateSpecs:
    def test_lookup_kinds(self):
        assert lookup("sum").kind is AggKind.ASSOCIATIVE
        assert lookup("percentile_disc").kind is AggKind.ORDERED_SET
        assert lookup("lag").kind is AggKind.WINDOW_ONLY
        # Composed aggregates have no spec: the compgraph registry lowers them.
        assert is_aggregate_name("avg") and is_window_name("avg")
        with pytest.raises(BindError, match="composed"):
            lookup("avg")

    def test_name_classifiers(self):
        assert is_aggregate_name("sum")
        assert not is_aggregate_name("row_number")
        assert is_window_name("row_number")
        assert not is_window_name("abs")

    def test_unknown_rejected(self):
        with pytest.raises(BindError):
            lookup("frobnicate")

    def test_call_reprs(self):
        call = AggregateCall("out", "sum", [col("x")], distinct=True)
        assert "DISTINCT" in repr(call)
        window = WindowCall(
            "w", "sum", [col("x")], partition_by=[col("p")],
            order_by=[(col("o"), True)], frame=FrameSpec.running(),
        )
        text = repr(window)
        assert "PARTITION BY" in text and "DESC" in text and "ROWS" in text

    def test_result_types(self):
        assert lookup("count").result_type([DataType.STRING]) is DataType.INT64
        assert lookup("percentile_cont").result_type([DataType.INT64]) is DataType.FLOAT64
        assert lookup("min").result_type([DataType.DATE]) is DataType.DATE


class TestErrorPaths:
    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table("t", {"a": "int64", "s": "string"})
        database.insert("t", {"a": [1, 2], "s": ["x", "y"]})
        return database

    def test_semi_join_residual_rejected(self, db):
        db.create_table("u", {"a": "int64", "b": "int64"})
        with pytest.raises(NotSupportedError):
            db.plan("SELECT 1 FROM t SEMI JOIN u ON t.a = u.a AND t.a < u.b")

    @pytest.mark.parametrize("sql", [
        "SELECT 1 FROM t LEFT JOIN u ON t.a = u.a AND t.s = 'x'",
        "SELECT 1 FROM t LEFT JOIN u ON t.a = u.a AND t.a < u.b",
        "SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.a = t.a AND t.s = 'x')",
    ])
    def test_preserved_side_conjunct_rejected(self, db, sql):
        """A LEFT or ANTI join keeps its left rows that fail the condition,
        so a conjunct over them filters neither below nor above the join."""
        db.create_table("u", {"a": "int64", "b": "int64"})
        with pytest.raises(NotSupportedError):
            db.plan(sql)

    def test_distinct_with_grouping_sets_rejected(self, db):
        with pytest.raises(NotSupportedError):
            db.sql(
                "SELECT a, count(DISTINCT s) FROM t "
                "GROUP BY GROUPING SETS ((a), ())"
            )

    def test_exists_with_group_by_rejected(self, db):
        db.create_table("v", {"a": "int64"})
        with pytest.raises(NotSupportedError):
            db.plan(
                "SELECT a FROM t WHERE EXISTS "
                "(SELECT a FROM v GROUP BY a HAVING count(*) > 1)"
            )

    def test_window_in_group_by_query_select_rejected(self, db):
        with pytest.raises(BindError):
            db.plan(
                "SELECT a, row_number() OVER (ORDER BY a) FROM t GROUP BY a"
            )

    def test_date_arithmetic_end_to_end(self, db):
        db.create_table("d", {"day": "date"})
        db.insert("d", {"day": [datetime.date(1995, 6, 17)]})
        rows = db.sql("SELECT day - 1 AS prev FROM d").rows()
        assert rows == [(datetime.date(1995, 6, 16),)]

    def test_explain_renders_every_operator(self, db):
        db.create_table("m", {"a": "int64"})
        text = db.explain(
            "SELECT t.a, count(*) FROM t JOIN m ON t.a = m.a "
            "WHERE t.a > 0 GROUP BY t.a ORDER BY t.a LIMIT 1"
        )
        for token in ("SCAN", "JOIN", "FILTER", "AGGREGATE", "SORT", "LIMIT"):
            assert token in text


def test_paper_plans_example(capsys):
    """The plan-rendering example runs and shows every figure."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "paper_plans_example",
        os.path.join(
            os.path.dirname(__file__), "..", "examples", "paper_plans.py"
        ),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "Figure 1" in out and "LOLEPOP DAG" in out
    assert out.count("PARTITION") >= 4
