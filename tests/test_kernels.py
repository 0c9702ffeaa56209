"""Tests for the aggregation kernels: grouped (distributive) and sorted
(holistic) reductions, and WINDOW's frame aggregates. A column without a
validity mask takes the NULL-free path of each; it must agree bit for bit
with the masked path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EngineConfig
from repro.aggregates import PRIMITIVES, FrameBound, FrameSpec, lookup
from repro.errors import ExecutionError
from repro.lolepop.window_op import _frame_aggregate, _frame_bounds
from repro.relational import grouped_reduce, sorted_reduce
from repro.storage import Batch, Column
from repro.types import DataType, Field, Schema


def int_col(values):
    return Column.from_values(DataType.INT64, values)


def float_col(values):
    return Column.from_values(DataType.FLOAT64, values)


CODES = np.array([0, 1, 0, 2, 1])


class TestGroupedReduce:
    def test_sum_int_exact(self):
        out = grouped_reduce("sum", int_col([1, 2, 3, 4, 5]), CODES, 3)
        assert out.to_pylist() == [4, 7, 4]
        assert out.dtype is DataType.INT64

    def test_sum_skips_nulls(self):
        out = grouped_reduce("sum", int_col([1, None, 3, None, 5]), CODES, 3)
        assert out.to_pylist() == [4, 5, None]

    def test_count(self):
        out = grouped_reduce("count", int_col([1, None, 3, None, 5]), CODES, 3)
        assert out.to_pylist() == [2, 1, 0]

    def test_count_star(self):
        out = grouped_reduce("count_star", None, CODES, 3)
        assert out.to_pylist() == [2, 2, 1]

    def test_min_max(self):
        col = float_col([5.0, 1.0, 2.0, 9.0, 7.0])
        assert grouped_reduce("min", col, CODES, 3).to_pylist() == [2.0, 1.0, 9.0]
        assert grouped_reduce("max", col, CODES, 3).to_pylist() == [5.0, 7.0, 9.0]

    def test_min_int_keeps_type(self):
        out = grouped_reduce("min", int_col([5, 1, 2, 9, 7]), CODES, 3)
        assert out.dtype is DataType.INT64
        assert out.to_pylist() == [2, 1, 9]

    def test_min_max_int64_extremes_exact(self):
        col = int_col([2**53 + 1, 2**53, 2**63 - 1, -(2**63), None])
        assert grouped_reduce("max", col, CODES, 3).to_pylist() == [
            2**63 - 1, 2**53, -(2**63),
        ]
        assert grouped_reduce("min", col, CODES, 3).to_pylist() == [
            2**53 + 1, 2**53, -(2**63),
        ]

    def test_min_max_keep_bool_and_date(self):
        bools = Column.from_values(DataType.BOOL, [True, False, True, None, True])
        out = grouped_reduce("min", bools, CODES, 3)
        assert out.dtype is DataType.BOOL
        assert out.to_pylist() == [True, False, None]
        dates = Column.from_values(DataType.DATE, [5, 1, 2, 9, 7])
        assert grouped_reduce("max", dates, CODES, 3).dtype is DataType.DATE

    def test_min_strings(self):
        col = Column.from_values(DataType.STRING, ["e", "b", "a", "z", "c"])
        out = grouped_reduce("min", col, CODES, 3)
        assert out.to_pylist() == ["a", "b", "z"]

    def test_any_first_nonnull(self):
        out = grouped_reduce("any", int_col([None, 2, 3, None, 5]), CODES, 3)
        assert out.to_pylist() == [3, 2, None]

    def test_bool_aggregates(self):
        col = Column.from_values(DataType.BOOL, [True, False, True, None, False])
        assert grouped_reduce("bool_and", col, CODES, 3).to_pylist() == [
            True, False, None,
        ]
        assert grouped_reduce("bool_or", col, CODES, 3).to_pylist() == [
            True, False, None,
        ]

    def test_empty_group_is_null(self):
        out = grouped_reduce("sum", float_col([]), np.empty(0, np.int64), 2)
        assert out.to_pylist() == [None, None]

    def test_count_star_requires_no_arg(self):
        with pytest.raises(ExecutionError):
            grouped_reduce("sum", None, CODES, 3)

    def test_unknown_func(self):
        with pytest.raises(ExecutionError):
            grouped_reduce("median", float_col([1.0]), np.array([0]), 1)


class TestMergeReduce:
    """Partials merge with the aggregate's declared ``AggSpec.merge``."""

    def test_count_merges_by_sum(self):
        assert lookup("count").merge == "sum"
        partials = int_col([2, 3, 5])
        out = grouped_reduce(lookup("count").merge, partials, np.array([0, 0, 1]), 2)
        assert out.to_pylist() == [5, 5]

    def test_min_merges_by_min(self):
        merge = lookup("min").merge
        out = grouped_reduce(merge, int_col([4, 2, 9]), np.array([0, 0, 1]), 2)
        assert out.to_pylist() == [2, 9]

    def test_holistic_aggregates_declare_no_merge(self):
        assert {name for name, spec in PRIMITIVES.items() if spec.merge is None} == {
            "percentile_disc", "percentile_cont", "mode",
        }


def one_range(func, values, fraction=None):
    """``sorted_reduce`` over one key range holding ``values``."""
    column = values if isinstance(values, Column) else int_col(values)
    codes = np.zeros(len(column), dtype=np.int64)
    out = sorted_reduce(func, column, np.array([0]), codes, 1, fraction)
    return out.to_pylist()[0]


class TestPercentiles:
    def test_disc_matches_sql_definition(self):
        # first value with cumulative fraction >= f
        values = [10, 20, 30, 40]
        assert one_range("percentile_disc", values, 0.5) == 20
        assert one_range("percentile_disc", values, 0.25) == 10
        assert one_range("percentile_disc", values, 0.26) == 20
        assert one_range("percentile_disc", values, 1.0) == 40
        assert one_range("percentile_disc", values, 0.0) == 10

    def test_cont_interpolates(self):
        assert one_range("percentile_cont", float_col([10.0, 20.0]), 0.5) == 15.0

    def test_empty_is_null(self):
        assert one_range("percentile_disc", int_col([None]), 0.5) is None

    def test_ranges_are_independent(self):
        # Two ranges, each sorted with its NULLs last.
        values = int_col([1, 2, 3, None, 7, 8, None, None])
        codes = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        starts = np.array([0, 4])
        disc = sorted_reduce("percentile_disc", values, starts, codes, 2, 0.5)
        assert disc.to_pylist() == [2, 7]
        assert disc.dtype is DataType.INT64
        cont = sorted_reduce("percentile_cont", values, starts, codes, 2, 0.5)
        assert cont.to_pylist() == [2.0, 7.5]

    def test_cont_keeps_an_infinity_it_lands_on(self):
        values = float_col([1.0, float("inf"), float("inf")])
        assert one_range("percentile_cont", values, 1.0) == float("inf")

    def test_cont_is_exact_past_2_53_only_as_float(self):
        assert one_range("percentile_cont", [2**53 + 1], 0.5) == float(2**53 + 1)

    def test_unknown_func(self):
        with pytest.raises(ExecutionError):
            one_range("sum", [1, 2], 0.5)


class TestMode:
    def test_longest_run_wins(self):
        assert one_range("mode", [1, 2, 2, 3, 3, 3]) == 3

    def test_tie_goes_to_the_first_run(self):
        assert one_range("mode", [5, 5, 9, 9]) == 5

    def test_nulls_do_not_vote(self):
        assert one_range("mode", [4, None, None, None]) == 4
        assert one_range("mode", int_col([None, None])) is None

    def test_null_run_next_to_a_sentinel_valued_run(self):
        # A value equal to the key encoder's NULL sentinel still differs
        # from NULL.
        sentinel = -(2**63) + 1
        assert one_range("mode", [sentinel, None, None]) == sentinel

    def test_per_range_strings(self):
        values = Column.from_values(DataType.STRING, ["a", "b", "b", "c", "c", "d"])
        codes = np.array([0, 0, 0, 1, 1, 1])
        out = sorted_reduce("mode", values, np.array([0, 3]), codes, 2)
        assert out.to_pylist() == ["b", "c"]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.one_of(st.integers(-50, 50), st.none())),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from(["sum", "count", "min", "max"]),
)
def test_grouped_reduce_matches_python(pairs, func):
    """Property: kernels agree with a trivial Python dict implementation."""
    codes = np.array([c for c, _ in pairs], dtype=np.int64)
    values = int_col([v for _, v in pairs])
    out = grouped_reduce(func, values, codes, 5).to_pylist()
    expected = []
    for g in range(5):
        members = [v for (c, v) in pairs if c == g and v is not None]
        if func == "count":
            expected.append(len(members))
        elif not members:
            expected.append(None)
        elif func == "sum":
            expected.append(sum(members))
        elif func == "min":
            expected.append(min(members))
        else:
            expected.append(max(members))
    assert out == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50),
       st.floats(0.0, 1.0))
def test_percentile_disc_is_element_with_enough_mass(values, fraction):
    """Property: percentile_disc returns a member whose cumulative frequency
    reaches the fraction."""
    ordered = sorted(values)
    value = one_range("percentile_disc", ordered, fraction)
    assert value is not None
    n = len(ordered)
    # cumulative fraction at this element's last occurrence >= fraction
    last = max(i for i, v in enumerate(ordered) if v == value)
    assert (last + 1) / n >= fraction


# ----------------------------------------------------------------------
# NULL-free and NULL-bearing inputs agree
# ----------------------------------------------------------------------

#: The value types each kernel function is checked on.
GROUPED_TYPES = {
    "count": ["int64", "string"],
    "sum": ["int64", "float64"],
    "min": ["int64", "float64", "string"],
    "max": ["int64", "float64", "string"],
    "any": ["int64", "string"],
    "bool_and": ["bool"],
    "bool_or": ["bool"],
}

_VALUES = {
    "int64": st.integers(-(2**40), 2**40),  # 30 of them sum within int64
    "float64": st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -1.5, 1e16, 2.5]),
    "string": st.sampled_from(["", "a", "b", "zz"]),
    "bool": st.booleans(),
}

#: NULL-free, some NULLs, all NULL, and the two empty inputs.
SHAPES = ["null_free", "some_nulls", "all_null", "empty_keyed", "empty_keyless"]


@st.composite
def aggregate_inputs(draw, types):
    """``(dtype name, values with None for NULL, codes, num_groups)``."""
    type_name = draw(st.sampled_from(types))
    shape = draw(st.sampled_from(SHAPES))
    if shape.startswith("empty"):
        return type_name, [], [], 0 if shape == "empty_keyed" else 1
    num_groups = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    codes = draw(st.lists(st.integers(0, num_groups - 1), min_size=n, max_size=n))
    values = draw(st.lists(_VALUES[type_name], min_size=n, max_size=n))
    if shape == "all_null":
        values = [None] * n
    elif shape == "some_nulls":
        nulls = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        values = [None if null else v for v, null in zip(values, nulls)]
    return type_name, values, codes, num_groups


def _column(type_name, values):
    return Column.from_values(DataType(type_name), values)


def _with_explicit_mask(column):
    """``column`` carrying its validity as a mask, all-true where it had
    none (the constructor would drop an all-true mask)."""
    twin = Column(column.dtype, column.data, None, column.dictionary)
    twin.valid = (
        np.ones(len(column), dtype=bool) if column.valid is None else column.valid
    )
    return twin


def _without_nulls(column, codes):
    """The non-NULL rows of ``column`` (no mask) and their codes."""
    keep = column.valid_mask()
    return Column(column.dtype, column.data[keep], None, column.dictionary), codes[keep]


def assert_bit_equal(a, b):
    assert a.dtype is b.dtype
    assert a.data.dtype == b.data.dtype
    assert a.data.tobytes() == b.data.tobytes()
    assert (a.valid is None) == (b.valid is None)
    if a.valid is not None:
        assert np.array_equal(a.valid, b.valid)
    assert a.dictionary is b.dictionary or list(a.dictionary.strings) == list(
        b.dictionary.strings
    )


def _python_aggregate(func, members):
    """``func`` over the non-NULL ``members`` of one group, in row order."""
    if func == "count":
        return len(members)
    if not members:
        return None
    if func == "sum":
        # From 0 or 0.0, row by row as the kernels add.
        total = 0.0 if isinstance(members[0], float) else 0
        for member in members:
            total = total + member
        return total
    if func == "min":
        return min(members)
    if func == "max":
        return max(members)
    if func == "any":
        return members[0]
    if func == "bool_and":
        return all(members)
    return any(members)


def _same(got, expected):
    """Equal, and for floats equal bit for bit (so -0.0 is not 0.0)."""
    if isinstance(expected, float) and got is not None:
        return np.float64(got).tobytes() == np.float64(expected).tobytes()
    return got == expected


class TestNullFreeKernels:
    """Every kernel branches once on ``valid is None``; the NULL-free path
    must be the masked path bit for bit, and both must be Python's answer."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(GROUPED_TYPES)), st.data())
    def test_grouped_reduce(self, func, data):
        type_name, values, codes, num_groups = data.draw(
            aggregate_inputs(GROUPED_TYPES[func])
        )
        column = _column(type_name, values)
        codes = np.array(codes, dtype=np.int64)
        out = grouped_reduce(func, column, codes, num_groups)
        assert_bit_equal(
            out, grouped_reduce(func, _with_explicit_mask(column), codes, num_groups)
        )
        # Dropping the NULL rows leaves a NULL-free input with the same answer.
        assert_bit_equal(
            out, grouped_reduce(func, *_without_nulls(column, codes), num_groups)
        )
        got = out.to_pylist()
        for group in range(num_groups):
            members = [
                v for v, c in zip(values, codes.tolist()) if c == group and v is not None
            ]
            expected = _python_aggregate(func, members)
            if func in ("min", "max") and type_name == "float64" and members:
                assert got[group] == expected  # -0.0 and 0.0 tie
            else:
                assert _same(got[group], expected), (group, got, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["percentile_disc", "percentile_cont"]),
        st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
        st.data(),
    )
    def test_percentiles(self, func, fraction, data):
        type_name, values, codes, num_groups = data.draw(
            aggregate_inputs(["int64", "float64"])
        )
        # Sorted key ranges, NULLs last within each: the input ORDAGG
        # gives. A range holds at least one row, so codes are renumbered.
        rows = sorted(zip(codes, values), key=lambda r: (r[0], r[1] is None, r[1] or 0))
        codes = np.unique([c for c, _ in rows], return_inverse=True)[1]
        num_groups = int(codes.max()) + 1 if len(codes) else num_groups
        values = [v for _, v in rows]
        column = _column(type_name, values)
        starts = np.searchsorted(codes, np.arange(num_groups))
        out = sorted_reduce(func, column, starts, codes, num_groups, fraction)
        masked = _with_explicit_mask(column)
        assert_bit_equal(
            out, sorted_reduce(func, masked, starts, codes, num_groups, fraction)
        )
        got = out.to_pylist()
        for group in range(num_groups):
            members = [v for v, c in zip(values, codes) if c == group and v is not None]
            if not members:
                assert got[group] is None
                continue
            n = len(members)
            if func == "percentile_disc":
                expected = members[max(math.ceil(fraction * n) - 1, 0)]
            else:
                position = fraction * (n - 1)
                lower, upper = math.floor(position), math.ceil(position)
                weight = position - lower
                expected = float(members[lower])
                if lower < upper:
                    expected = expected * (1.0 - weight) + float(members[upper]) * weight
            assert _same(got[group], expected), (group, got, expected)


FRAME_FUNCS = ["count", "sum", "min", "max", "any", "bool_and", "bool_or"]

FRAMES = {
    "rows_running": FrameSpec(),
    "rows_sliding": FrameSpec(FrameBound.PRECEDING, 2, FrameBound.FOLLOWING, 1),
    "rows_following": FrameSpec(
        FrameBound.FOLLOWING, 1, FrameBound.UNBOUNDED_FOLLOWING, 0
    ),
    "range_running": FrameSpec.running_range(),
    "range_peers": FrameSpec(
        FrameBound.CURRENT_ROW, 0, FrameBound.CURRENT_ROW, 0, mode="range"
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FRAME_FUNCS), st.sampled_from(sorted(FRAMES)), st.data())
def test_frame_aggregate_null_free_matches_masked(func, frame_name, data):
    """WINDOW's ``_frame_aggregate`` under ROWS and RANGE frames, one
    partition ordered by ``o`` (its codes, so peers are equal codes)."""
    type_name, values, codes, _ = data.draw(aggregate_inputs(GROUPED_TYPES[func]))
    order = sorted(range(len(codes)), key=lambda i: codes[i])
    keys = [codes[i] for i in order]
    values = [values[i] for i in order]
    batch = Batch(
        Schema([Field("o", DataType.INT64)]),
        [Column(DataType.INT64, np.array(keys, dtype=np.int64))],
    )
    n = len(keys)
    idx = np.arange(n, dtype=np.int64)
    zeros, ends = np.zeros(n, dtype=np.int64), np.full(n, n, dtype=np.int64)
    lo, hi = _frame_bounds(FRAMES[frame_name], idx, zeros, ends, batch, [], ["o"])
    column = _column(type_name, values)
    out = _frame_aggregate(func, column, lo, hi)
    assert_bit_equal(out, _frame_aggregate(func, _with_explicit_mask(column), lo, hi))
    got = out.to_pylist()
    for row in range(n):
        members = [v for v in values[lo[row]:hi[row]] if v is not None]
        expected = _python_aggregate(func, members)
        if func in ("min", "max") and type_name == "float64" and members:
            assert got[row] == expected
        elif func == "sum" and type_name == "float64" and members:
            # A frame sum is the difference of two running totals, exact
            # only to the rounding of the largest total (1e16 then 0.1 reads
            # 0.0 for the 0.1 alone).
            scale = sum(abs(v) for v in values if v is not None)
            assert got[row] == pytest.approx(expected, rel=0, abs=1e-15 * scale)
        else:
            assert _same(got[row], expected), (row, got, expected)


class TestNullFreeInputBuildsNoMask:
    """Over NULL-free tables no aggregation path materializes a validity
    mask: ``Column.valid_mask`` is patched to fail on a column without one,
    and HASHAGG (keyed and keyless, a pass-through morsel, one morsel and
    several), ORDAGG and WINDOW sum/min/count run as before."""

    ROWS = 6_000

    SQL = {
        "hashagg": "SELECT g, sum(v), sum(x), count(x), min(s), max(x), any(v), "
        "bool_and(b), bool_or(b), count(*) FROM t GROUP BY g",
        "hashagg_keyless": "SELECT sum(v), count(x), min(s), max(x), bool_or(b), "
        "count(*) FROM t",
        # 6 000 distinct keys saturate the local table: a pass-through partial.
        "hashagg_passthrough": "SELECT i, count(x), sum(v) FROM t GROUP BY i",
        "ordagg": "SELECT g, median(x), percentile_disc(0.25) WITHIN GROUP "
        "(ORDER BY v), mode() WITHIN GROUP (ORDER BY s) FROM t GROUP BY g",
        "window": "SELECT g, sum(x) OVER (PARTITION BY g ORDER BY v) AS a, "
        "min(v) OVER (PARTITION BY g ORDER BY i ROWS BETWEEN 2 PRECEDING "
        "AND CURRENT ROW) AS m, count(x) OVER (PARTITION BY g) AS c FROM t",
    }

    @pytest.fixture(scope="class")
    def database(self):
        rng = np.random.default_rng(3)
        db = Database()
        db.create_table(
            "t",
            {"i": "int64", "g": "int64", "s": "string", "v": "int64",
             "x": "float64", "b": "bool"},
        )
        db.insert("t", {
            "i": list(range(self.ROWS)),
            "g": rng.integers(0, 40, self.ROWS).tolist(),
            "s": [f"s{k % 7}" for k in rng.integers(0, 50, self.ROWS).tolist()],
            "v": rng.integers(-100, 100, self.ROWS).tolist(),
            "x": rng.random(self.ROWS).round(3).tolist(),
            "b": (rng.random(self.ROWS) > 0.5).tolist(),
        })
        return db

    @pytest.mark.parametrize("morsel_size", [100_000, 700], ids=["one-morsel", "morsels"])
    @pytest.mark.parametrize("engine", ["lolepop", "monolithic"])
    @pytest.mark.parametrize("shape", sorted(SQL))
    def test_no_mask_is_built(self, database, monkeypatch, shape, engine, morsel_size):
        sql = self.SQL[shape]
        config = EngineConfig(morsel_size=morsel_size)
        # Unguarded first: collects the statistics and caches the plan.
        expected = database.sql(sql, engine=engine, config=config).rows()
        valid_mask = Column.valid_mask

        def guarded(self):
            assert self.valid is not None, "a validity mask of a NULL-free column"
            return valid_mask(self)

        monkeypatch.setattr(Column, "valid_mask", guarded)
        assert database.sql(sql, engine=engine, config=config).rows() == expected
