"""Vectorized grouped-aggregation kernels.

``grouped_reduce`` evaluates one associative aggregate over dense group
codes; ``merge_reduce`` names the function that merges *partial* results of
each aggregate (COUNT partials merge by SUM, etc.) — the algebra behind
two-phase hash aggregation. ``percentile_from_sorted`` implements the
ordered-set aggregates on a sorted value slice.

NULL semantics: SUM/MIN/MAX ignore NULLs and return NULL for all-NULL
groups; COUNT counts non-NULL rows; ANY returns the first value (the paper's
pseudo aggregate — any group element is acceptable, we pick the first
non-NULL one for determinism, NULL if none).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..storage.column import Column
from ..types import DataType

#: How partial results of each aggregate merge in the second phase.
MERGE_FUNC = {
    "sum": "sum",
    "count": "sum",
    "count_star": "sum",
    "min": "min",
    "max": "max",
    "any": "any",
    "bool_and": "bool_and",
    "bool_or": "bool_or",
}

_ASSOCIATIVE = set(MERGE_FUNC)


def is_associative(func: str) -> bool:
    return func in _ASSOCIATIVE


def grouped_reduce(
    func: str,
    values: Optional[Column],
    codes: np.ndarray,
    num_groups: int,
) -> Column:
    """Evaluate one associative aggregate per dense group code.

    ``values`` is ``None`` only for ``count_star``. Returns one row per
    group, indexed by code.
    """
    if func == "count_star":
        counts = np.bincount(codes, minlength=num_groups)
        return Column(DataType.INT64, counts.astype(np.int64))
    if values is None:
        raise ExecutionError(f"{func} requires an argument column")
    valid = values.valid_mask()
    if func == "count":
        counts = np.bincount(codes[valid], minlength=num_groups)
        return Column(DataType.INT64, counts.astype(np.int64))
    if func == "sum":
        return _grouped_sum(values, codes, num_groups, valid)
    if func in ("min", "max"):
        return _grouped_minmax(func, values, codes, num_groups, valid)
    if func == "any":
        return _grouped_any(values, codes, num_groups, valid)
    if func in ("bool_and", "bool_or"):
        data = values.values.astype(bool)
        target = np.bincount(codes[valid], minlength=num_groups)
        hits = np.bincount(
            codes[valid & (data if func == "bool_or" else ~data)],
            minlength=num_groups,
        )
        if func == "bool_or":
            result = hits > 0
        else:
            result = hits == 0
        group_valid = target > 0
        return Column(DataType.BOOL, result, group_valid)
    raise ExecutionError(f"not an associative aggregate: {func}")


def _grouped_sum(
    values: Column, codes: np.ndarray, num_groups: int, valid: np.ndarray
) -> Column:
    counts = np.bincount(codes[valid], minlength=num_groups)
    group_valid = counts > 0
    if values.dtype is DataType.INT64:
        # np.add.at is exact for int64 (bincount weights would round through
        # float64).
        out = np.zeros(num_groups, dtype=np.int64)
        np.add.at(out, codes[valid], values.values[valid])
        return Column(DataType.INT64, out, group_valid)
    data = values.values.astype(np.float64)
    out = np.bincount(codes[valid], weights=data[valid], minlength=num_groups)
    return Column(DataType.FLOAT64, out, group_valid)


def _grouped_minmax(
    func: str, values: Column, codes: np.ndarray, num_groups: int, valid: np.ndarray
) -> Column:
    counts = np.bincount(codes[valid], minlength=num_groups)
    group_valid = counts > 0
    if values.dictionary is not None:
        # Reduce per-entry ranks, then map each winning rank back to its code.
        ranks = Column(DataType.INT64, values.dictionary.rank[values.data])
        winners = _grouped_minmax(func, ranks, codes, num_groups, valid).data
        winners = values.dictionary.order[winners].astype(np.int32)
        return Column(DataType.STRING, winners, group_valid, values.dictionary)
    fill = np.inf if func == "min" else -np.inf
    data = values.values.astype(np.float64)
    out = np.full(num_groups, fill, dtype=np.float64)
    ufunc = np.minimum if func == "min" else np.maximum
    ufunc.at(out, codes[valid], data[valid])
    if values.dtype in (DataType.INT64, DataType.DATE, DataType.BOOL):
        result = np.zeros(num_groups, dtype=values.dtype.numpy_dtype)
        result[group_valid] = out[group_valid].astype(values.dtype.numpy_dtype)
        return Column(values.dtype, result, group_valid)
    result = np.where(group_valid, out, 0.0)
    return Column(DataType.FLOAT64, result, group_valid)


def _grouped_any(
    values: Column, codes: np.ndarray, num_groups: int, valid: np.ndarray
) -> Column:
    # First non-NULL value per group: write back-to-front so the first wins.
    idx = np.flatnonzero(valid)[::-1]
    return values.take(idx).scatter(codes[idx], num_groups)


def merge_reduce(
    func: str,
    partials: Column,
    codes: np.ndarray,
    num_groups: int,
) -> Column:
    """Merge partial aggregate results (phase 2 of two-phase aggregation)."""
    return grouped_reduce(MERGE_FUNC[func], partials, codes, num_groups)


def percentile_from_sorted(
    func: str,
    sorted_values: np.ndarray,
    fraction: float,
) -> Tuple[float, bool]:
    """Ordered-set aggregate over one group's sorted (NULL-free) values.

    Returns ``(value, is_valid)``; empty input yields NULL.

    - ``percentile_disc(f)``: the first value whose cumulative fraction is
      >= f (SQL standard).
    - ``percentile_cont(f)``: linear interpolation at position f·(n-1).
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0, False
    if func == "percentile_disc":
        index = int(np.ceil(fraction * n)) - 1
        index = min(max(index, 0), n - 1)
        return sorted_values[index], True
    if func == "percentile_cont":
        position = fraction * (n - 1)
        lower = int(np.floor(position))
        upper = int(np.ceil(position))
        if lower == upper:
            return float(sorted_values[lower]), True
        weight = position - lower
        return (
            float(sorted_values[lower]) * (1.0 - weight)
            + float(sorted_values[upper]) * weight,
            True,
        )
    raise ExecutionError(f"not an ordered-set aggregate: {func}")
