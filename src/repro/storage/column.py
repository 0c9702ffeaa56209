"""Typed column vectors with null support.

A :class:`Column` is the smallest physical unit: a flat numpy array plus an
optional boolean validity mask (``True`` = value present). A missing mask
means "no nulls", which keeps the common all-valid path allocation-free as
long as hot paths branch on ``valid is None`` themselves: the aggregation
kernels (HASHAGG, ORDAGG, WINDOW) read a NULL-free column as it is, and
:meth:`Column.valid_mask` materializes an all-true mask.

``STRING`` columns are dictionary-encoded: ``data`` holds int32 codes into an
immutable :class:`~repro.storage.dictionary.StringDictionary` that ``take`` /
``filter`` / ``slice`` carry by reference. ``values`` decodes on demand (a
fresh object array per call — result rendering, CSV and the row oracles read
it; the data plane works on codes). NULL rows carry an arbitrary valid code.

SQL null semantics live here in one place: the constructors normalize the
representation (an all-true mask is dropped) so operators never need to
branch on "mask or no mask" more than once.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ExecutionError
from ..types import DataType, date_to_days, days_to_date
from .dictionary import EMPTY, StringDictionary, object_array


class Column:
    """A typed value vector with an optional validity mask."""

    __slots__ = ("dtype", "data", "valid", "dictionary")

    def __init__(
        self,
        dtype: DataType,
        values: np.ndarray,
        valid: Optional[np.ndarray] = None,
        dictionary: Optional[StringDictionary] = None,
    ):
        """``values`` is the physical array — for ``STRING`` either int32
        codes with their ``dictionary``, or an object array of ``str`` that
        is encoded here, once."""
        if not isinstance(values, np.ndarray):
            raise ExecutionError("Column values must be a numpy array")
        if dtype is DataType.STRING and dictionary is None:
            values, dictionary = StringDictionary.encode(values)
        if valid is not None:
            if valid.shape != values.shape:
                raise ExecutionError("validity mask shape mismatch")
            if bool(valid.all()):
                valid = None  # normalize: all-valid columns carry no mask
        self.dtype = dtype
        self.data = values
        self.valid = valid
        self.dictionary = dictionary

    @property
    def values(self) -> np.ndarray:
        """The logical values: ``data`` itself, or for ``STRING`` a freshly
        decoded object array (never cached, so a table column does not pin
        one pointer per row)."""
        if self.dictionary is None:
            return self.data
        return self.dictionary.strings[self.data]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, dtype: DataType, data: Iterable[Any]) -> "Column":
        """Build a column from Python values; ``None`` becomes NULL."""
        items = list(data)
        valid = np.array([item is not None for item in items], dtype=bool)
        np_dtype = dtype.numpy_dtype
        if dtype is DataType.STRING:
            values = object_array([item if item is not None else "" for item in items])
        elif dtype is DataType.DATE:
            values = np.array(
                [date_to_days(item) if item is not None else 0 for item in items],
                dtype=np_dtype,
            )
        else:
            fill = False if dtype is DataType.BOOL else 0
            values = np.array(
                [item if item is not None else fill for item in items], dtype=np_dtype
            )
        return cls(dtype, values, None if bool(valid.all()) else valid)

    @classmethod
    def constant(cls, dtype: DataType, value: Any, length: int) -> "Column":
        """A column holding ``value`` repeated ``length`` times."""
        if value is None:
            return cls.nulls(dtype, length)
        if dtype is DataType.DATE:
            value = date_to_days(value)
        if dtype is DataType.STRING:
            return cls(
                dtype,
                np.zeros(length, dtype=np.int32),
                None,
                StringDictionary(object_array([value])),
            )
        return cls(dtype, np.full(length, value, dtype=dtype.numpy_dtype))

    @classmethod
    def nulls(cls, dtype: DataType, length: int) -> "Column":
        """An all-NULL column."""
        valid = np.zeros(length, dtype=bool)
        if dtype is DataType.STRING:
            return cls(dtype, np.zeros(length, dtype=np.int32), valid, EMPTY)
        fill = False if dtype is DataType.BOOL else 0
        return cls(dtype, np.full(length, fill, dtype=dtype.numpy_dtype), valid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    @property
    def has_nulls(self) -> bool:
        return self.valid is not None

    def valid_mask(self) -> np.ndarray:
        """A boolean mask of non-null positions, always materialized: a
        column without NULLs allocates an all-true one on every call, so a
        hot path branches on ``valid is None`` instead."""
        if self.valid is None:
            return np.ones(len(self.data), dtype=bool)
        return self.valid

    def null_count(self) -> int:
        if self.valid is None:
            return 0
        return int((~self.valid).sum())

    def is_null(self, row: int) -> bool:
        return self.valid is not None and not bool(self.valid[row])

    def value_at(self, row: int) -> Any:
        """Python-level value at ``row`` (``None`` for NULL, date objects for
        DATE columns). Used by result rendering and the naive engine."""
        if self.is_null(row):
            return None
        raw = self.data[row]
        if self.dictionary is not None:
            return self.dictionary.strings[raw]
        if self.dtype is DataType.DATE:
            return days_to_date(int(raw))
        if self.dtype is DataType.INT64:
            return int(raw)
        if self.dtype is DataType.FLOAT64:
            return float(raw)
        if self.dtype is DataType.BOOL:
            return bool(raw)
        return raw

    def to_pylist(self) -> List[Any]:
        return [self.value_at(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position (the permutation-vector access path)."""
        valid = None if self.valid is None else self.valid[indices]
        return Column(self.dtype, self.data[indices], valid, self.dictionary)

    def filter(self, mask: np.ndarray) -> "Column":
        valid = None if self.valid is None else self.valid[mask]
        return Column(self.dtype, self.data[mask], valid, self.dictionary)

    def slice(self, start: int, stop: int) -> "Column":
        valid = None if self.valid is None else self.valid[start:stop]
        return Column(self.dtype, self.data[start:stop], valid, self.dictionary)

    def with_valid(self, valid: Optional[np.ndarray]) -> "Column":
        """The same values under another validity mask."""
        return Column(self.dtype, self.data, valid, self.dictionary)

    def retyped_nulls(self, dtype: DataType) -> "Column":
        """This all-NULL column as a column of ``dtype``. A NULL literal is
        typed before its context is known (``CASE ... ELSE NULL``), so it
        meets string columns without a dictionary of its own."""
        if self.valid_mask().any():
            raise ExecutionError(
                f"cannot use {self.dtype.value} values as {dtype.value}"
            )
        return Column.nulls(dtype, len(self))

    def overlay(self, mask: np.ndarray, source: "Column") -> "Column":
        """This column with the rows selected by ``mask`` taken from
        ``source`` (values cast to this column's type). String columns
        merge dictionaries and move codes, so e.g. a CASE over string
        literals never materializes a string per row."""
        if (self.dictionary is None) != (source.dictionary is None):
            source = source.retyped_nulls(self.dtype)
        data = self.data.copy()
        dictionary = self.dictionary
        picked = source.data[mask]
        if dictionary is not None:
            dictionary, mapping = dictionary.unify(source.dictionary)
            data[mask] = picked if mapping is None else mapping[picked]
        else:
            data[mask] = picked.astype(data.dtype, copy=False)
        valid = self.valid_mask().copy()
        valid[mask] = source.valid_mask()[mask]
        return Column(self.dtype, data, valid, dictionary)

    def scatter(self, positions: np.ndarray, length: int) -> "Column":
        """A ``length``-row column that is NULL except that row
        ``positions[i]`` holds this column's row ``i`` (on duplicate
        positions the last row wins)."""
        data = np.zeros(length, dtype=self.data.dtype)
        valid = np.zeros(length, dtype=bool)
        data[positions] = self.data
        valid[positions] = True if self.valid is None else self.valid
        return Column(self.dtype, data, valid, self.dictionary)

    @staticmethod
    def concat(columns: Sequence["Column"]) -> "Column":
        """Concatenate columns of the same type. String columns are brought
        into one code space first: free when they share a dictionary (or a
        prefix-extension of it), otherwise one lookup per dictionary entry
        — never per row."""
        if not columns:
            raise ExecutionError("cannot concatenate zero columns")
        dtype = columns[0].dtype
        if any(col.dtype is not dtype for col in columns):
            raise ExecutionError("concat over mismatched column types")
        parts = [col.data for col in columns]
        dictionary = columns[0].dictionary
        if any(col.dictionary is not dictionary for col in columns):
            # Grow the largest dictionary: its codes need no remap.
            dictionary = max((col.dictionary for col in columns), key=len)
            mappings: dict = {}
            for i, col in enumerate(columns):
                key = id(col.dictionary)
                if key not in mappings:
                    dictionary, mappings[key] = dictionary.unify(col.dictionary)
                if mappings[key] is not None:
                    parts[i] = mappings[key][col.data]
        if any(col.valid is not None for col in columns):
            valid = np.concatenate([col.valid_mask() for col in columns])
        else:
            valid = None
        return Column(dtype, np.concatenate(parts), valid, dictionary)

    def copy(self) -> "Column":
        valid = None if self.valid is None else self.valid.copy()
        return Column(self.dtype, self.data.copy(), valid, self.dictionary)

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.to_pylist()[:6])
        more = ", ..." if len(self) > 6 else ""
        return f"Column<{self.dtype.value}>[{preview}{more}]"
