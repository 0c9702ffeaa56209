"""Tests for the aggregation kernels: grouped (distributive) and sorted
(holistic) reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import PRIMITIVES, lookup
from repro.errors import ExecutionError
from repro.relational import grouped_reduce, sorted_reduce
from repro.storage import Column
from repro.types import DataType


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
