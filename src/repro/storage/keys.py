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


def _normalize_values(column: Column, entries: str = "rank") -> np.ndarray:
    """Map column values to an int64 array where equal values have equal
    representation and NULLs are distinguishable.

    Strings gather a per-entry array of their dictionary by code: ``rank``
    (order-preserving and collision-free, comparable within one column —
    grouping, sorting, range detection) or ``hash`` (equal for equal strings
    in *any* dictionary — partitioning only, never equality)."""
    if column.dictionary is not None:
        values = getattr(column.dictionary, entries)[column.data]
    elif column.dtype is DataType.FLOAT64:
        # Normalize -0.0 to 0.0 so they hash/group together.
        values = column.data + 0.0
        values = values.view(np.int64).astype(np.int64)
    else:
        values = column.data.astype(np.int64)
    if column.valid is not None:
        values = values.copy()
        values[~column.valid] = _NULL_SENTINEL
    return values


def _pack_keys(columns: Sequence[Column]) -> Optional[Tuple[np.ndarray, int]]:
    """``(packed, capacity)``: the composite key as one mixed-radix int64 per
    row in ``[0, capacity)``, most significant digit first (so packed order
    is lexicographic key order), or ``None`` when the product of the
    per-column ranges does not fit in 63 bits.

    A column's digit is its value's offset from the column minimum plus one;
    zero is NULL, so NULL keys sort first and equal only each other."""
    packed = np.zeros(len(columns[0]), dtype=np.int64)
    capacity = 1
    for column in columns:
        values = _normalize_values(column)
        valid = column.valid
        low = high = 0
        if column.dictionary is not None:
            high = len(column.dictionary) - 1
        else:
            present = values if valid is None else values[valid]
            if len(present):
                low, high = int(present.min()), int(present.max())
        radix = high - low + 2
        capacity *= radix
        if capacity >= 1 << 63:
            return None
        digits = (values - low) + 1
        if valid is not None:
            digits[~valid] = 0
        packed = packed * radix + digits
    return packed, capacity


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
    packing = _pack_keys(columns)
    if packing is not None:
        packed, capacity = packing
        if capacity > 2 * n:
            uniques, first_index, codes = np.unique(
                packed, return_index=True, return_inverse=True
            )
            return codes.astype(np.int64), first_index.astype(np.int64), len(uniques)
        # Few possible keys per row (dictionary ranks, narrow ints): a direct
        # table over the key range replaces the sort — measured 3x faster
        # than np.unique at capacity = 2n, even at 8n, slower beyond; 2n
        # also bounds the table to twice the key array. Assigning row
        # numbers back to front leaves each key's first row in its slot.
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
