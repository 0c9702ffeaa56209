"""Unit tests for Column (values + validity mask)."""

import datetime

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.storage import Column
from repro.types import DataType


class TestConstruction:
    def test_from_values_no_nulls(self):
        col = Column.from_values(DataType.INT64, [1, 2, 3])
        assert col.valid is None  # normalized: all-valid carries no mask
        assert col.to_pylist() == [1, 2, 3]

    def test_from_values_with_nulls(self):
        col = Column.from_values(DataType.FLOAT64, [1.5, None, 2.5])
        assert col.has_nulls
        assert col.null_count() == 1
        assert col.to_pylist() == [1.5, None, 2.5]

    def test_all_true_mask_normalized_away(self):
        col = Column(
            DataType.INT64, np.array([1, 2]), np.array([True, True])
        )
        assert col.valid is None

    def test_dates_from_strings(self):
        col = Column.from_values(DataType.DATE, ["1995-06-17", None])
        assert col.value_at(0) == datetime.date(1995, 6, 17)
        assert col.value_at(1) is None

    def test_constant_and_nulls(self):
        assert Column.constant(DataType.INT64, 7, 3).to_pylist() == [7, 7, 7]
        assert Column.nulls(DataType.STRING, 2).to_pylist() == [None, None]

    def test_constant_none_is_nulls(self):
        assert Column.constant(DataType.BOOL, None, 2).to_pylist() == [None, None]

    def test_requires_ndarray(self):
        with pytest.raises(ExecutionError):
            Column(DataType.INT64, [1, 2, 3])

    def test_mask_shape_mismatch(self):
        with pytest.raises(ExecutionError):
            Column(DataType.INT64, np.array([1, 2]), np.array([True]))


class TestTransforms:
    def test_take(self):
        col = Column.from_values(DataType.INT64, [10, None, 30])
        taken = col.take(np.array([2, 0, 1]))
        assert taken.to_pylist() == [30, 10, None]

    def test_filter(self):
        col = Column.from_values(DataType.INT64, [1, 2, 3, 4])
        assert col.filter(np.array([True, False, True, False])).to_pylist() == [1, 3]

    def test_slice(self):
        col = Column.from_values(DataType.STRING, ["a", "b", "c"])
        assert col.slice(1, 3).to_pylist() == ["b", "c"]

    def test_concat(self):
        a = Column.from_values(DataType.INT64, [1, None])
        b = Column.from_values(DataType.INT64, [3])
        merged = Column.concat([a, b])
        assert merged.to_pylist() == [1, None, 3]

    def test_concat_type_mismatch(self):
        a = Column.from_values(DataType.INT64, [1])
        b = Column.from_values(DataType.FLOAT64, [1.0])
        with pytest.raises(ExecutionError):
            Column.concat([a, b])

    def test_concat_empty_list(self):
        with pytest.raises(ExecutionError):
            Column.concat([])


class TestValueAccess:
    def test_python_types(self):
        assert isinstance(
            Column.from_values(DataType.INT64, [1]).value_at(0), int
        )
        assert isinstance(
            Column.from_values(DataType.FLOAT64, [1.0]).value_at(0), float
        )
        assert isinstance(
            Column.from_values(DataType.BOOL, [True]).value_at(0), bool
        )

    def test_copy_is_independent(self):
        col = Column.from_values(DataType.INT64, [1, 2])
        clone = col.copy()
        clone.values[0] = 99
        assert col.value_at(0) == 1
