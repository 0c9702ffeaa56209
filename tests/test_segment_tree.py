"""Tests for the range-aggregation structures: sparse tables and prefix sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.lolepop.segment_tree import PrefixSums, SparseTable
from repro.relational.kernels import from_domain, value_domain
from repro.storage import Column
from repro.types import DataType


class TestSparseTable:
    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        data = rng.random(37)
        table = SparseTable(data, "min")
        lo = np.array([0, 3, 10, 36, 5])
        hi = np.array([37, 4, 20, 37, 5])
        out = table.query_many(lo, hi)
        for i in range(len(lo)):
            if lo[i] >= hi[i]:
                assert out[i] == np.inf
            else:
                assert out[i] == data[lo[i] : hi[i]].min()

    def test_max_variant(self):
        data = np.array([1.0, 9.0, 2.0])
        out = SparseTable(data, "max").query_many(np.array([0]), np.array([3]))
        assert out[0] == 9.0

    def test_only_min_max(self):
        with pytest.raises(ExecutionError):
            SparseTable(np.array([1.0]), "sum")


    def test_int64_extremes_stay_exact(self):
        data = np.array([2**53 + 1, 2**53, 2**63 - 1, -(2**63), 7], dtype=np.int64)
        lo, hi = np.array([0, 0, 1, 3]), np.array([2, 5, 2, 5])
        mins = SparseTable(data, "min").query_many(lo, hi)
        maxs = SparseTable(data, "max").query_many(lo, hi)
        assert mins.dtype == np.int64 and maxs.dtype == np.int64
        assert mins.tolist() == [2**53, -(2**63), 2**53, -(2**63)]
        assert maxs.tolist() == [2**53 + 1, 2**63 - 1, 2**53, 7]

    def test_string_ranks(self):
        """Strings reduce over their dictionary ranks and map back."""
        column = Column.from_values(DataType.STRING, ["pear", "apple", "fig", "apple"])
        ranks = value_domain(column)
        lo, hi = np.array([0, 2, 0]), np.array([2, 4, 4])
        low = SparseTable(ranks, "min").query_many(lo, hi)
        high = SparseTable(ranks, "max").query_many(lo, hi)
        valid = np.ones(3, dtype=bool)
        assert from_domain(column, low, valid).to_pylist() == ["apple", "apple", "apple"]
        assert from_domain(column, high, valid).to_pylist() == ["pear", "fig", "pear"]

    def test_empty_frames_give_the_identity(self):
        data = np.array([3, 1, 2], dtype=np.int64)
        lo, hi = np.array([1, 3, 0]), np.array([1, 3, 0])
        assert SparseTable(data, "min").query_many(lo, hi).tolist() == [2**63 - 1] * 3
        assert SparseTable(data, "max").query_many(lo, hi).tolist() == [-(2**63)] * 3


class TestPrefixSums:
    def test_int64_sums_are_exact(self):
        data = np.array([2**53 + 1, 2**53, 3, -(2**53) - 1], dtype=np.int64)
        sums = PrefixSums(data).query_many(np.array([0, 1, 0]), np.array([2, 4, 4]))
        assert sums.dtype == np.int64
        assert sums.tolist() == [2**54 + 1, 2, 2**53 + 3]

    def test_wrapped_prefixes_still_give_range_sums(self):
        # The prefix past the first two rows wraps around int64.
        data = np.array([2**62, 2**62, -(2**62), 5], dtype=np.int64)
        sums = PrefixSums(data).query_many(np.array([1, 2]), np.array([3, 4]))
        assert sums.tolist() == [0, -(2**62) + 5]

    def test_empty_frames_sum_to_zero(self):
        ps = PrefixSums(np.array([True, False, True]))
        assert ps.query_many(np.array([0, 2, 3]), np.array([0, 2, 3])).tolist() == [0, 0, 0]

    def test_ranges(self):
        ps = PrefixSums(np.array([1.0, 2.0, 3.0, 4.0]))
        assert list(ps.query_many(np.array([0, 1]), np.array([4, 3]))) == [10.0, 5.0]

    def test_empty_range_zero(self):
        ps = PrefixSums(np.array([1.0, 2.0]))
        assert ps.query_many(np.array([1]), np.array([1]))[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=64),
    st.data(),
)
def test_segment_tree_equals_sparse_table_and_naive(values, data):
    """Property: the sparse table agrees with a naive loop for min queries."""
    arr = np.array(values)
    lo = data.draw(st.integers(0, len(arr) - 1))
    hi = data.draw(st.integers(lo + 1, len(arr)))
    table = SparseTable(arr, "min")
    naive = arr[lo:hi].min()
    assert table.query_many(np.array([lo]), np.array([hi]))[0] == pytest.approx(naive)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=64), st.data())
def test_prefix_sums_match_naive(values, data):
    arr = np.array(values)
    lo = data.draw(st.integers(0, len(arr)))
    hi = data.draw(st.integers(lo, len(arr)))
    ps = PrefixSums(arr)
    assert ps.query_many(np.array([lo]), np.array([hi]))[0] == pytest.approx(
        arr[lo:hi].sum() if hi > lo else 0.0
    )
