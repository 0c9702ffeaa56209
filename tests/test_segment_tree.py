"""Tests for the range-aggregation structures: sparse tables and prefix sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.lolepop.segment_tree import PrefixSums, SparseTable


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


class TestPrefixSums:
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
