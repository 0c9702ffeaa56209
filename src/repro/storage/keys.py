"""Multi-column key encoding.

Hashing, grouping, partitioning and sorting all operate on composite keys
(several columns, possibly with NULLs). This module provides the two
primitives everything else builds on:

- :func:`group_codes` — dense group ids per row plus representative indices,
  the vectorized equivalent of building a hash table over the key columns.
  NULL keys follow GROUP BY semantics: NULL equals NULL (one NULL group).
- :func:`hash_codes` / :func:`partition_ids` — stable 64-bit hashes of the
  key columns, used by PARTITION and HASHAGG to scatter rows. A hash only
  ever picks a partition; no caller decides equality on it.
- :func:`lexsort_indices` — a stable multi-key argsort honoring
  ascending/descending and NULLS LAST per key.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..types import DataType
from .column import Column

_HASH_PRIME = np.uint64(0x9E3779B97F4A7C15)
_MIX_PRIME = np.uint64(0xBF58476D1CE4E5B9)

_NULL_SENTINEL = np.iinfo(np.int64).min + 1

#: A table over the packed key range itself (grouping, join build) replaces
#: the sort up to this many slots per row: measured 3x faster than
#: ``np.unique`` at 2n, even at 8n, slower beyond; 2n also bounds its size.
DIRECT_TABLE_FACTOR = 2


def _key_ints(data: np.ndarray, as_bits: bool) -> np.ndarray:
    """The int64 a number compares by: itself, or its float64 bits (-0.0 as 0.0)."""
    if as_bits:
        return (data.astype(np.float64, copy=False) + 0.0).view(np.int64)
    return data.astype(np.int64, copy=False)


def _normalize_values(column: Column, entries: str = "rank") -> np.ndarray:
    """Map column values to an int64 array where equal values have equal
    representation and NULLs are distinguishable.

    Strings gather a per-entry array of their dictionary by code: ``rank``
    (order-preserving and collision-free, comparable within one column —
    grouping, sorting, range detection) or ``hash`` (equal for equal strings
    in *any* dictionary — partitioning only, never equality)."""
    if column.dictionary is not None:
        values = getattr(column.dictionary, entries)[column.data]
    else:
        values = _key_ints(column.data, column.dtype is DataType.FLOAT64)
    if column.valid is not None:
        values = values.copy()
        values[~column.valid] = _NULL_SENTINEL
    return values


def fit_keys(columns: Sequence[Column]) -> Optional[Tuple[list, int]]:
    """The packed key space of ``columns``, ``(digits, capacity)``: composite
    keys as one mixed-radix int64 in ``[0, capacity)``, most significant
    digit first (so packed order is lexicographic key order), or ``None``
    when the product of the per-column ranges does not fit in 63 bits.
    ``digits`` holds ``(low, radix, column)`` per column: a value's digit is
    its offset from the column minimum plus one; zero is NULL, so NULL keys
    sort first and equal only each other."""
    digits, capacity = [], 1
    for column in columns:
        low = high = 0
        if column.dictionary is not None:
            high = len(column.dictionary) - 1
        else:
            present = _key_ints(column.data, column.dtype is DataType.FLOAT64)
            if column.valid is not None:
                present = present[column.valid]
            if len(present):
                low, high = int(present.min()), int(present.max())
        digits.append((low, high - low + 2, column))
        capacity *= high - low + 2
    return (digits, capacity) if capacity < 1 << 63 else None


def encode_keys(
    space: Tuple[list, int], columns: Sequence[Column]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(packed, matchable)``: ``columns`` mapped into ``space``, and which
    rows hold a key of it (``None``: all). A NULL, a value outside the fitted
    range — tested before the offset is taken, so no ``int64`` extreme wraps
    into a digit — or a string the fitted dictionary lacks gets digit zero,
    which no fitted value has. Strings compare by the fitted dictionary's
    ranks, numbers the way ``=`` does whatever the two column types."""
    packed = np.zeros(len(columns[0]), dtype=np.int64)
    matchable = []
    for column, (low, radix, fitted) in zip(columns, space[0]):
        data, masks = column.data, [column.valid]
        as_bits = fitted.dtype is DataType.FLOAT64
        if (column.dictionary is None) != (fitted.dictionary is None):
            # A string key against a NULL literal's placeholder type.
            values = np.zeros(len(data), dtype=np.int64)
            masks.append(values != 0)
        elif fitted.dictionary is not None:
            mapping = fitted.dictionary.translate(column.dictionary)
            if mapping is not None:
                data = mapping[data]
                masks.append(data >= 0)
            values = fitted.dictionary.rank[data]
        else:
            if column.dtype is DataType.FLOAT64 and column is not fitted:
                if as_bits:
                    masks.append(data == data)  # NaN equals nothing
                else:  # only a whole float equals an integer
                    masks.append((data == np.floor(data)) & (np.abs(data) < 2.0**63))
                    data = np.where(masks[-1], data, 0.0)
            values = _key_ints(data, as_bits)
            if column is not fitted:
                masks.append((values >= low) & (values <= low + radix - 2))
        digits = (values - low) + 1
        masks = [mask for mask in masks if mask is not None]
        if masks:
            matchable.append(np.logical_and.reduce(masks))
            digits[~matchable[-1]] = 0
        packed = packed * radix + digits
    return packed, np.logical_and.reduce(matchable) if matchable else None


def group_codes(columns: Sequence[Column]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dense group encoding of composite keys.

    Returns ``(codes, representatives, num_groups)`` where ``codes[i]`` is the
    dense id (0..num_groups-1) of row ``i``'s key, and ``representatives[g]``
    is the index of the first row belonging to group ``g``. Group ids are
    assigned in lexicographic key order (NULL first within a column), not
    in order of first occurrence.
    """
    if not columns:
        raise ValueError("group_codes requires at least one key column")
    n = len(columns[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    space = fit_keys(columns)
    if space is not None:
        packed, capacity = encode_keys(space, columns)[0], space[1]
        if capacity > DIRECT_TABLE_FACTOR * n:
            uniques, first_index, codes = np.unique(
                packed, return_index=True, return_inverse=True
            )
            return codes.astype(np.int64), first_index.astype(np.int64), len(uniques)
        # Few possible keys per row (dictionary ranks, narrow ints): no sort.
        # Assigning rows back to front leaves each key's first row in its slot.
        first_row = np.full(capacity, n, dtype=np.int64)
        first_row[packed[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        present = first_row < n
        codes = (np.cumsum(present) - 1)[packed]
        first_index = first_row[present]
        return codes, first_index, len(first_index)
    # Ranges too wide to pack: stable lexsort, then number the runs.
    parts: List[np.ndarray] = []
    for column in columns:
        parts.append(_normalize_values(column))
        if column.valid is not None:
            parts.append(column.valid.astype(np.int64))
    order = np.lexsort(tuple(reversed(parts)))
    starts = np.zeros(n, dtype=bool)
    starts[0] = True
    for part in parts:
        ordered = part[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(starts) - 1
    first_index = order[starts]
    return codes, first_index.astype(np.int64), len(first_index)


def hash_codes(columns: Sequence[Column]) -> np.ndarray:
    """Stable 64-bit composite hash of the key columns.

    Uses a splitmix-style multiply-xor mix per column, combined with a
    Fibonacci constant — deterministic across runs (no PYTHONHASHSEED
    dependence), which execution traces and tests rely on.
    """
    if not columns:
        raise ValueError("hash_codes requires at least one key column")
    n = len(columns[0])
    acc = np.full(n, np.uint64(0x243F6A8885A308D3), dtype=np.uint64)
    for column in columns:
        values = _normalize_values(column, "hash").astype(np.uint64)
        values = (values ^ (values >> np.uint64(30))) * _MIX_PRIME
        values ^= values >> np.uint64(27)
        acc = (acc ^ values) * _HASH_PRIME
        acc ^= acc >> np.uint64(31)
    return acc


def partition_ids(columns: Sequence[Column], num_partitions: int) -> np.ndarray:
    """Partition assignment (0..num_partitions-1) per row."""
    hashes = hash_codes(columns)
    return (hashes % np.uint64(num_partitions)).astype(np.int64)


def lexsort_indices(
    columns: Sequence[Column],
    descending: Optional[Sequence[bool]] = None,
) -> np.ndarray:
    """Stable argsort by multiple keys; first column is the primary key.

    ``descending[i]`` flips the i-th key. NULLs always sort last within
    their key (SQL default NULLS LAST for ASC; we keep NULLS LAST for DESC
    too, matching PostgreSQL's NULLS LAST when spelled explicitly — the
    evaluation queries never depend on NULL placement).
    """
    if not columns:
        raise ValueError("lexsort_indices requires at least one key column")
    if descending is None:
        descending = [False] * len(columns)
    keys = [
        col.sort_key(descending=desc, nulls_last=True)
        for col, desc in zip(columns, descending)
    ]
    # np.lexsort treats the *last* key as primary.
    return np.lexsort(tuple(reversed(keys)))


#: Below this row count, splitting a sort costs more than it saves.
SPLIT_SORT_MIN_ROWS = 4096


def split_lexsort(
    columns: Sequence[Column],
    descending: Optional[Sequence[bool]] = None,
    parts: int = 2,
):
    """Decompose :func:`lexsort_indices` into independent sub-sorts.

    The paper's SORT is a morsel-driven partition sort (§4.4): one large
    hash partition is itself parallel work. We range-partition the rows on
    the primary sort key using sampled splitters (all rows with equal
    primary key land in the same bucket, buckets are contiguous key
    ranges), stable-sort each bucket independently — that is the thunk the
    parallel scheduler fans out — and concatenate the per-bucket orders.

    Returns ``(thunks, finalize)`` where each thunk yields the sorted row
    indices of one bucket and ``finalize`` concatenates them into the full
    permutation, or ``None`` when splitting is not worthwhile. The combined
    permutation is *identical* to ``lexsort_indices(columns, descending)``:
    both are the unique stable order, so parallel and serial SORT agree
    bit-for-bit.
    """
    if not columns:
        raise ValueError("split_lexsort requires at least one key column")
    n = len(columns[0])
    if parts < 2 or n < SPLIT_SORT_MIN_ROWS:
        return None
    if descending is None:
        descending = [False] * len(columns)
    keys = [
        col.sort_key(descending=desc, nulls_last=True)
        for col, desc in zip(columns, descending)
    ]
    primary = keys[0]
    # Sampled splitters at bucket quantiles (deterministic stride sample).
    sample = np.sort(primary[:: max(1, n // 1024)], kind="stable")
    positions = (np.arange(1, parts) * len(sample)) // parts
    splitters = sample[positions]
    buckets = np.searchsorted(splitters, primary, side="right")
    # Stable distribution: bucket-major, original order within a bucket.
    order = np.argsort(buckets, kind="stable")
    bounds = np.searchsorted(buckets[order], np.arange(parts + 1))
    reversed_keys = tuple(reversed(keys))

    def make_thunk(indices: np.ndarray):
        def thunk() -> np.ndarray:
            local = np.lexsort(tuple(k[indices] for k in reversed_keys))
            return indices[local]

        return thunk

    thunks = []
    for b in range(parts):
        indices = order[bounds[b] : bounds[b + 1]]
        if len(indices):
            thunks.append(make_thunk(indices))
    if len(thunks) < 2:
        return None

    def finalize(pieces) -> np.ndarray:
        return np.concatenate(pieces)

    return thunks, finalize
