"""Tests for expression evaluation: vectorized and row-at-a-time must agree
(the row evaluator is the differential oracle's foundation)."""

import datetime
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import BindError, ExecutionError
from repro.expr import BinaryOp, CaseExpr, Cast, ColumnRef, FuncCall, InList, IsNull, UnaryOp, col, evaluate, evaluate_row, infer_dtype, lit, columns_referenced
from repro.storage import Batch
from repro.types import DataType, Schema

SCHEMA = Schema.of(
    ("a", "int64"), ("b", "float64"), ("s", "string"), ("d", "date"), ("f", "bool")
)


def make_batch(rows):
    data = {name: [] for name in SCHEMA.names()}
    for row in rows:
        for name in SCHEMA.names():
            data[name].append(row.get(name))
    return Batch.from_pydict(SCHEMA, data)


def both_ways(expr, rows):
    """Evaluate vectorized and per-row; assert agreement; return values."""
    batch = make_batch(rows)
    vector = evaluate(expr, batch).to_pylist()
    scalar = [evaluate_row(expr, row) for row in rows]

    def norm(v):
        return round(v, 9) if isinstance(v, float) else v

    assert [norm(v) for v in vector] == [norm(v) for v in scalar]
    return vector


ROWS = [
    {"a": 3, "b": 1.5, "s": "xy", "d": datetime.date(1995, 1, 2), "f": True},
    {"a": None, "b": -2.0, "s": "zz", "d": datetime.date(1995, 1, 3), "f": False},
    {"a": 0, "b": None, "s": "a%b", "d": None, "f": None},
]


class TestArithmetic:
    def test_add_nulls_propagate(self):
        assert both_ways(col("a") + col("b"), ROWS) == [4.5, None, None]

    def test_division_always_float(self):
        values = both_ways(col("a") / lit(2), ROWS)
        assert values == [1.5, None, 0.0]

    def test_division_by_zero_is_null(self):
        assert both_ways(col("a") / lit(0), ROWS) == [None, None, None]

    def test_modulo(self):
        assert both_ways(BinaryOp("%", col("a"), lit(2)), ROWS) == [1, None, 0]

    def test_modulo_by_zero_is_null(self):
        assert both_ways(BinaryOp("%", col("a"), lit(0)), ROWS)[0] is None

    def test_unary_minus(self):
        assert both_ways(UnaryOp("-", col("b")), ROWS) == [-1.5, 2.0, None]

    def test_date_minus_int_is_date(self):
        expr = BinaryOp("-", col("d"), lit(1))
        assert infer_dtype(expr, SCHEMA) is DataType.DATE
        assert both_ways(expr, ROWS)[0] == datetime.date(1995, 1, 1)

    def test_date_minus_date_is_days(self):
        expr = BinaryOp("-", col("d"), col("d"))
        assert infer_dtype(expr, SCHEMA) is DataType.INT64
        assert both_ways(expr, ROWS)[0] == 0


class TestComparisons:
    def test_ordering(self):
        assert both_ways(BinaryOp("<", col("a"), lit(1)), ROWS) == [False, None, True]

    def test_string_equality(self):
        assert both_ways(BinaryOp("=", col("s"), lit("zz")), ROWS) == [
            False, True, False,
        ]

    def test_like(self):
        expr = BinaryOp("like", col("s"), lit("a%"))
        assert both_ways(expr, ROWS) == [False, False, True]

    def test_like_underscore(self):
        expr = BinaryOp("like", col("s"), lit("_y"))
        assert both_ways(expr, ROWS)[0] is True


class TestLogic:
    def test_kleene_and(self):
        # Row 3: f is NULL, IsNull(a)=FALSE -> NULL AND FALSE = FALSE.
        expr = BinaryOp("and", col("f"), IsNull(col("a")))
        assert both_ways(expr, ROWS) == [False, False, False]

    def test_kleene_and_null_survives(self):
        # TRUE AND NULL = NULL (row 1: f=TRUE, f2 references f of row 3).
        expr = BinaryOp("and", lit(True), col("f"))
        assert both_ways(expr, ROWS) == [True, False, None]

    def test_kleene_or(self):
        # Row 3: NULL OR FALSE = NULL; row 2: a IS NULL -> TRUE dominates.
        expr = BinaryOp("or", col("f"), IsNull(col("a")))
        assert both_ways(expr, ROWS) == [True, True, None]

    def test_not_propagates_null(self):
        assert both_ways(UnaryOp("not", col("f")), ROWS) == [False, True, None]


class TestConstructs:
    def test_is_null(self):
        assert both_ways(IsNull(col("a")), ROWS) == [False, True, False]
        assert both_ways(IsNull(col("a"), negated=True), ROWS) == [True, False, True]

    def test_in_list(self):
        expr = InList(col("a"), [lit(0), lit(3)])
        assert both_ways(expr, ROWS) == [True, None, True]

    def test_not_in_list(self):
        expr = InList(col("a"), [lit(0)], negated=True)
        assert both_ways(expr, ROWS) == [True, None, False]

    def test_case(self):
        expr = CaseExpr(
            [(BinaryOp(">", col("a"), lit(1)), lit("big"))], lit("small")
        )
        assert both_ways(expr, ROWS) == ["big", "small", "small"]

    def test_case_no_default_yields_null(self):
        expr = CaseExpr([(BinaryOp(">", col("a"), lit(100)), lit(1))], None)
        assert both_ways(expr, ROWS) == [None, None, None]

    def test_cast(self):
        expr = Cast(col("a"), DataType.FLOAT64)
        assert both_ways(expr, ROWS) == [3.0, None, 0.0]

    def test_nullif(self):
        expr = FuncCall("nullif", [col("a"), lit(0)])
        assert both_ways(expr, ROWS) == [3, None, None]

    def test_coalesce(self):
        expr = FuncCall("coalesce", [col("a"), lit(-1)])
        assert both_ways(expr, ROWS) == [3, -1, 0]

    def test_scalar_functions(self):
        assert both_ways(FuncCall("abs", [col("b")]), ROWS) == [1.5, 2.0, None]
        assert both_ways(FuncCall("power", [col("b"), lit(2)]), ROWS) == [
            2.25, 4.0, None,
        ]
        assert both_ways(FuncCall("length", [col("s")]), ROWS) == [2, 2, 3]
        assert both_ways(FuncCall("year", [col("d")]), ROWS) == [1995, 1995, None]

    def test_unknown_function(self):
        with pytest.raises(BindError):
            evaluate(FuncCall("frobnicate", [col("a")]), make_batch(ROWS))

    def test_arity_check(self):
        with pytest.raises(BindError):
            evaluate(FuncCall("abs", [col("a"), col("b")]), make_batch(ROWS))


STRING_ROWS = [
    {"a": 1, "s": "Pear"}, {"a": 2, "s": "apple"}, {"a": 3, "s": None},
    {"a": 4, "s": ""}, {"a": 5, "s": "Pear"}, {"a": 6, "s": "éclair"},
    {"a": 7, "s": "apple"}, {"a": 8, "s": "fig"},
]


class TestStringsOverTheDictionary:
    """String expressions run per dictionary entry and gather by code; they
    must still agree with the row evaluator on every row."""

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_compare_with_literal_and_with_column(self, op):
        both_ways(BinaryOp(op, col("s"), lit("apple")), STRING_ROWS)
        both_ways(BinaryOp(op, lit("fig"), col("s")), STRING_ROWS)
        # Two real columns with different dictionaries: lower(s) vs s.
        both_ways(BinaryOp(op, FuncCall("lower", [col("s")]), col("s")), STRING_ROWS)

    def test_in_list_and_like(self):
        expr = InList(col("s"), [lit("fig"), lit("Pear"), lit("absent")])
        assert both_ways(expr, STRING_ROWS) == [
            True, False, None, False, True, False, False, True,
        ]
        both_ways(BinaryOp("like", col("s"), lit("%p%")), STRING_ROWS)

    def test_functions_merge_equal_results(self):
        lowered = evaluate(FuncCall("lower", [col("s")]), make_batch(STRING_ROWS))
        assert lowered.to_pylist() == [
            "pear", "apple", None, "", "pear", "éclair", "apple", "fig",
        ]
        entries = lowered.dictionary.strings.tolist()
        assert len(entries) == len(set(entries))
        both_ways(FuncCall("upper", [col("s")]), STRING_ROWS)
        both_ways(FuncCall("substr", [col("s"), lit(2), lit(3)]), STRING_ROWS)
        both_ways(FuncCall("length", [col("s")]), STRING_ROWS)
        both_ways(FuncCall("concat", [col("s"), lit("-"), col("s")]), STRING_ROWS)

    def test_case_over_literals_emits_codes(self):
        expr = CaseExpr(
            [
                (BinaryOp(">", col("a"), lit(6)), lit("deep")),
                (BinaryOp(">", col("a"), lit(3)), lit("mid")),
                (BinaryOp("=", col("a"), lit(2)), col("s")),
            ],
            lit("low"),
        )
        result = evaluate(expr, make_batch(STRING_ROWS))
        assert both_ways(expr, STRING_ROWS) == [
            "low", "apple", "low", "mid", "mid", "mid", "deep", "deep",
        ]
        assert result.data.dtype.kind == "i"
        assert {"deep", "mid", "low"} <= set(result.dictionary.strings.tolist())

    def test_coalesce_and_nullif(self):
        assert both_ways(FuncCall("coalesce", [col("s"), lit("?")]), STRING_ROWS)[2] == "?"
        assert both_ways(FuncCall("nullif", [col("s"), lit("Pear")]), STRING_ROWS) == [
            None, "apple", None, "", None, "éclair", "apple", "fig",
        ]


    def test_null_literal_meets_strings(self):
        """A NULL literal is typed INT64 before its context is known, so its
        column has no dictionary; it contributes NULLs, never codes."""
        null = lit(None)
        big = BinaryOp(">", col("a"), lit(4))
        assert both_ways(CaseExpr([(big, lit("x"))], null), STRING_ROWS) == [
            None, None, None, None, "x", "x", "x", "x",
        ]
        both_ways(CaseExpr([(big, null)], col("s")), STRING_ROWS)
        both_ways(FuncCall("coalesce", [col("s"), null]), STRING_ROWS)
        both_ways(FuncCall("nullif", [col("s"), null]), STRING_ROWS)
        for op in ("=", "<", ">="):
            assert both_ways(BinaryOp(op, col("s"), null), STRING_ROWS) == [None] * 8
            assert both_ways(BinaryOp(op, null, col("s")), STRING_ROWS) == [None] * 8
        # "" is a value: the NULL member's placeholder must not match it.
        for negated in (False, True):
            both_ways(InList(col("s"), [lit("fig"), null], negated), STRING_ROWS)
            both_ways(InList(col("a"), [lit(3), null], negated), [{"a": 0}, {"a": 3}])
        with pytest.raises(ExecutionError, match="string values as int64"):
            evaluate(FuncCall("coalesce", [null, col("s")]), make_batch(STRING_ROWS))


def test_like_pattern_cache_is_bounded():
    from repro.expr.eval import _like_regex

    _like_regex.cache_clear()
    for i in range(1000):  # never-repeating ad-hoc patterns
        _like_regex(f"adhoc-{i}%")
    info = _like_regex.cache_info()
    assert info.maxsize == 256 and info.currsize == 256
    assert _like_regex("a%") is _like_regex("a%")


class TestIntrospection:
    def test_columns_referenced(self):
        expr = CaseExpr(
            [(BinaryOp("=", col("a"), lit(1)), col("b"))], FuncCall("abs", [col("d")])
        )
        assert columns_referenced(expr) == {"a", "b", "d"}

    def test_infer_types(self):
        assert infer_dtype(col("a") + col("a"), SCHEMA) is DataType.INT64
        assert infer_dtype(col("a") + col("b"), SCHEMA) is DataType.FLOAT64
        assert infer_dtype(BinaryOp("=", col("a"), lit(1)), SCHEMA) is DataType.BOOL
        assert infer_dtype(FuncCall("sqrt", [col("a")]), SCHEMA) is DataType.FLOAT64

    def test_structural_equality(self):
        assert (col("a") + lit(1)) == (col("a") + lit(1))
        assert (col("a") + lit(1)) != (col("a") + lit(2))
        assert hash(col("x")) == hash(ColumnRef("X"))  # case-folded


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-100, 100), st.none()),
            st.one_of(
                st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                st.none(),
            ),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_vector_scalar_agreement_property(pairs):
    """Property: both evaluators agree on a compound expression over random
    nullable data."""
    rows = [
        {"a": a, "b": b, "s": "t", "d": datetime.date(2000, 1, 1), "f": True}
        for a, b in pairs
    ]
    expr = FuncCall(
        "coalesce",
        [
            (col("a") + col("b")) / lit(3),
            FuncCall("abs", [col("b")]),
            Cast(col("a"), DataType.FLOAT64),
            lit(0.0),
        ],
    )
    both_ways(expr, rows)


class TestIntegerPowerExponent:
    """``power(x, <integer literal>)`` hands numpy a scalar exponent (its
    fast paths: a square for 2, a reciprocal for -1); any other exponent
    stays an array. Where pow is exact the two agree bit for bit, also at
    the IEEE special values; elsewhere the scalar path is the correctly
    rounded product and the array path within one ulp of it."""

    BASES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.0, 3.0, 0.25, -0.5, 10.0]
    #: Exponent written as a literal, and the column carrying it.
    EXPONENTS = [("2", "i2"), ("3", "i3"), ("-1", "im1"), ("0", "i0"),
                 ("0.5", "f05"), ("NULL", "inull"), ("y", "y")]
    CASES = [
        (engine, literal, column)
        for literal, column in EXPONENTS
        for engine in ("lolepop", "monolithic", "columnar", "naive")
    ]

    @pytest.fixture(scope="class")
    def database(self):
        n = len(self.BASES)
        db = Database()
        db.create_table("t", {
            "x": "float64", "y": "int64", "i2": "int64", "i3": "int64",
            "im1": "int64", "i0": "int64", "f05": "float64", "inull": "int64",
        })
        db.insert("t", {
            "x": self.BASES, "y": [2, 3, -1, 0, 5, -2, 1, 2, 3, -1, 4][:n],
            "i2": [2] * n, "i3": [3] * n, "im1": [-1] * n, "i0": [0] * n,
            "f05": [0.5] * n, "inull": [None] * n,
        })
        return db

    @staticmethod
    def bits(rows):
        return [
            None if v is None else ("nan" if math.isnan(v) else struct.pack("<d", v))
            for (v,) in rows
        ]

    @pytest.mark.parametrize("engine, literal, column", CASES)
    def test_literal_matches_array_exponent(self, database, engine, literal, column):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0.0 ** -1 and -2 ** 0.5 answer quietly
            as_literal = database.sql(f"SELECT power(x, {literal}) FROM t", engine=engine)
            as_column = database.sql(f"SELECT pow(x, {column}) FROM t", engine=engine)
            reference = database.sql(f"SELECT pow(x, {column}) FROM t", engine="lolepop")
        assert self.bits(as_literal.rows()) == self.bits(as_column.rows())
        assert self.bits(as_literal.rows()) == self.bits(reference.rows())

    @pytest.mark.parametrize("exponent", [2, 3, -1, 7])
    def test_finite_bases_round_within_one_ulp(self, exponent):
        values = np.random.default_rng(5).normal(size=2_000) * 100
        batch = Batch.from_pydict(Schema.of(("x", "float64"), ("e", "int64")), {
            "x": values.tolist(), "e": [exponent] * len(values),
        })
        scalar = evaluate(FuncCall("power", [col("x"), lit(exponent)]), batch).data
        array = evaluate(FuncCall("power", [col("x"), col("e")]), batch).data
        assert np.all(np.abs(scalar - array) <= np.spacing(np.abs(scalar)))
        if exponent == 2:
            assert scalar.tobytes() == (values * values).tobytes()
