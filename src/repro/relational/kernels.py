"""Aggregation kernels: one implementation per primitive aggregate.

``grouped_reduce`` evaluates one distributive aggregate over dense group
codes; two-phase aggregation merges partial results by calling it again
with the aggregate's declared merge function
(:attr:`repro.aggregates.AggSpec.merge`: COUNT partials merge by SUM, etc.).
``sorted_reduce`` evaluates one holistic (ordered-set) aggregate over key
ranges whose values are sorted — ORDAGG's sorted partitions and WINDOW's
sorted frames alike. :func:`value_domain` / :func:`from_domain` are the
value domain MIN/MAX compare in, shared with WINDOW's range structures.

NULL semantics: SUM/MIN/MAX ignore NULLs and return NULL for all-NULL
groups; COUNT counts non-NULL rows; ANY returns the first value (the paper's
pseudo aggregate — any group element is acceptable, we pick the first
non-NULL one for determinism, NULL if none).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ExecutionError
from ..storage.column import Column
from ..storage.keys import key_change_flags, stable_order
from ..types import DataType


def grouped_reduce(
    func: str,
    values: Optional[Column],
    codes: np.ndarray,
    num_groups: int,
) -> Column:
    """Evaluate one distributive aggregate per dense group code.

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
    if func == "min" or func == "max":
        return _grouped_minmax(func, values, codes, num_groups, valid)
    if func == "any":
        return _grouped_any(values, codes, num_groups, valid)
    if func == "bool_and" or func == "bool_or":
        # Rows that decide the group: a TRUE for OR, a FALSE for AND.
        deciding = values.data if func == "bool_or" else ~values.data
        hits = np.bincount(codes[valid & deciding], minlength=num_groups)
        group_valid = np.bincount(codes[valid], minlength=num_groups) > 0
        result = hits > 0 if func == "bool_or" else hits == 0
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


def value_domain(values: Column) -> np.ndarray:
    """The array MIN/MAX compare ``values`` by: float64 for FLOAT64,
    dictionary ranks for STRING, int64 for INT64/DATE/BOOL — exact for
    every value, unlike float64."""
    if values.dictionary is not None:
        if not len(values.dictionary):
            return np.zeros(len(values), dtype=np.int64)
        return values.dictionary.rank[values.data]
    if values.dtype is DataType.FLOAT64:
        return values.data
    return values.data.astype(np.int64, copy=False)


def from_domain(values: Column, reduced: np.ndarray, valid: np.ndarray) -> Column:
    """``reduced``, an array in the value domain of ``values``, as a column
    of ``values``' type; NULL where ``valid`` is False."""
    picked = np.where(valid, reduced, 0)
    if values.dictionary is not None:
        order = values.dictionary.order
        codes = order[picked] if len(order) else picked
        return Column(DataType.STRING, codes.astype(np.int32), valid, values.dictionary)
    return Column(values.dtype, picked.astype(values.data.dtype), valid)


def minmax_identity(func: str, dtype: np.dtype):
    """The identity of ``func`` (min/max) over arrays of ``dtype``."""
    if dtype.kind == "f":
        return np.inf if func == "min" else -np.inf
    info = np.iinfo(dtype)
    return info.max if func == "min" else info.min


def _grouped_minmax(
    func: str, values: Column, codes: np.ndarray, num_groups: int, valid: np.ndarray
) -> Column:
    group_valid = np.bincount(codes[valid], minlength=num_groups) > 0
    data = value_domain(values)
    out = np.full(num_groups, minmax_identity(func, data.dtype), dtype=data.dtype)
    ufunc = np.minimum if func == "min" else np.maximum
    ufunc.at(out, codes[valid], data[valid])
    return from_domain(values, out, group_valid)


def _grouped_any(
    values: Column, codes: np.ndarray, num_groups: int, valid: np.ndarray
) -> Column:
    # First non-NULL value per group: write back-to-front so the first wins.
    idx = np.flatnonzero(valid)[::-1]
    return values.take(idx).scatter(codes[idx], num_groups)


def sorted_reduce(
    func: str,
    values: Column,
    starts: np.ndarray,
    codes: np.ndarray,
    num_groups: int,
    fraction: Optional[float] = None,
) -> Column:
    """Evaluate one holistic aggregate per key range.

    Range ``g`` begins at row ``starts[g]``; ``codes`` gives each row's
    range; within a range ``values`` are sorted in the WITHIN GROUP order,
    NULLs last. Returns one row per range.

    - ``percentile_disc(f)``: the first value whose cumulative fraction is
      >= f (SQL standard).
    - ``percentile_cont(f)``: linear interpolation at position f·(n-1).
    - ``mode``: the longest run of equal values; ties resolve to the run
      first in the WITHIN GROUP order.
    """
    if func == "mode":
        return _sorted_mode(values, codes, num_groups)
    counts = np.bincount(codes[values.valid_mask()], minlength=num_groups)
    group_valid = counts > 0
    fraction = 0.5 if fraction is None else fraction
    safe = np.maximum(counts, 1)
    if func == "percentile_disc":
        offsets = np.clip(np.ceil(fraction * safe).astype(np.int64) - 1, 0, safe - 1)
        return values.take(starts + offsets).with_valid(group_valid)
    if func != "percentile_cont":
        raise ExecutionError(f"not an ordered-set aggregate: {func}")
    positions = fraction * (safe - 1)
    lower = np.floor(positions).astype(np.int64)
    upper = np.ceil(positions).astype(np.int64)
    weights = positions - lower
    blended = values.data[starts + lower].astype(np.float64)
    high = values.data[starts + upper].astype(np.float64)
    mixed = lower < upper  # elsewhere the value itself, even an infinity
    with np.errstate(invalid="ignore"):  # -inf blended with inf is NaN
        blended[mixed] = (
            blended[mixed] * (1.0 - weights[mixed]) + high[mixed] * weights[mixed]
        )
    return Column(DataType.FLOAT64, blended, group_valid)


def _sorted_mode(values: Column, codes: np.ndarray, num_groups: int) -> Column:
    flags = key_change_flags([Column(DataType.INT64, codes), values])
    run_starts = np.flatnonzero(flags)
    run_lengths = np.diff(np.append(run_starts, len(values)))
    keep = values.valid_mask()[run_starts]  # runs of NULLs do not vote
    run_starts, run_lengths = run_starts[keep], run_lengths[keep]
    run_codes = codes[run_starts]
    # (code asc, length desc, position asc): the first run per code wins.
    order = stable_order([run_codes, -run_lengths, run_starts])
    # The first run of each code: where the ordered codes change.
    ordered = run_codes[order]
    first = np.flatnonzero(key_change_flags([Column(DataType.INT64, ordered)]))
    return values.take(run_starts[order][first]).scatter(ordered[first], num_groups)
