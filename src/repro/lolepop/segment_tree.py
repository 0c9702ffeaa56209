"""Range-aggregation structures for associative window aggregation.

The WINDOW operator evaluates associative aggregates over sliding ROWS
frames using precomputed range-aggregation structures (Leis et al. [24]),
answering *all* rows' range queries in one vectorized batch — the shape
CPython needs:

- :class:`SparseTable` — a doubling table, O(n log n) build / O(n) batched
  query. Only valid for idempotent operations (min/max).
- :class:`PrefixSums` — exact O(1) range sums and counts.

Both keep their input's number type, so int64 arrays (the exact value
domain of :func:`repro.relational.kernels.value_domain`) aggregate as int64.
Inputs are NULL-free; the WINDOW operator masks NULLs with the identity
and counts valid rows with a parallel validity sum.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ExecutionError
from ..relational.kernels import minmax_identity


class SparseTable:
    """Doubling table for idempotent range queries (min/max), with fully
    vectorized batched queries."""

    def __init__(self, values: np.ndarray, op: str):
        if op != "min" and op != "max":
            raise ExecutionError("SparseTable supports min/max only")
        self._ufunc = np.minimum if op == "min" else np.maximum
        data = np.asarray(values)
        self._identity = minmax_identity(op, data.dtype)
        self.n = len(data)
        self._levels: List[np.ndarray] = [data]
        length = 1
        while 2 * length <= self.n:
            prev = self._levels[-1]
            self._levels.append(self._ufunc(prev[:-length], prev[length:]))
            length *= 2

    def query_many(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """values[lo_i:hi_i] aggregated, vectorized over all i. Empty ranges
        yield the identity."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        width = hi - lo
        dtype = self._levels[0].dtype
        out = np.full(len(lo), self._identity, dtype=dtype)
        nonempty = width > 0
        if not nonempty.any():
            return out
        w = width[nonempty]
        levels = np.floor(np.log2(w)).astype(np.int64)
        levels = np.clip(levels, 0, len(self._levels) - 1)
        left = lo[nonempty]
        right = hi[nonempty] - (1 << levels)
        # Gather per level (few distinct levels, loop over them).
        result = np.empty(len(w), dtype=dtype)
        for level in np.unique(levels):
            mask = levels == level
            table = self._levels[level]
            result[mask] = self._ufunc(
                table[left[mask]], table[np.maximum(right[mask], left[mask])]
            )
        out[nonempty] = result
        return out


class PrefixSums:
    """O(1) range sums/counts via prefix arrays. Integer sums are exact:
    int64 prefixes wrap, and the difference of two wraps back to every
    range sum that fits in int64."""

    def __init__(self, values: np.ndarray):
        # Booleans and integers accumulate as int64, floats as float64.
        self._prefix = np.concatenate(([0], np.cumsum(values)))

    def query_many(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        hi = np.maximum(hi, lo)
        return self._prefix[hi] - self._prefix[lo]
