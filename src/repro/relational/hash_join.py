"""Vectorized hash join in the packed key space.

Build side: :func:`~repro.storage.keys.fit_keys` makes each build key one
mixed-radix int64, and the "hash table" is an array indexed by *slot*:
``direct`` — the packed key itself, when the key range is dense (capacity <=
``DIRECT_TABLE_FACTOR`` x build rows: surrogate keys, dictionary ranks), so
nothing is sorted or searched; ``sorted`` — the key's position among the
sorted distinct packed keys, one int64 ``searchsorted`` per probe; ``wide``
— key ranges beyond 63 bits, where each probe numbers build and probe keys
together with :func:`~repro.storage.keys.group_codes`.

When no build key repeats (N:1) a slot holds its build row: the probe is one
gather and the probe columns pass through by reference (all rows matched, or
LEFT) or one filter. Otherwise (N:M) slots address a CSR layout (``offsets``
+ ``row_ids``) and matches are expanded. Output order is probe order, then
build row order; NULL join keys never match (SQL equality semantics).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..storage.batch import Batch
from ..storage.column import Column
from ..storage.keys import (
    DIRECT_TABLE_FACTOR,
    encode_keys,
    fit_keys,
    group_codes,
    number_runs,
)
from ..types import DataType


class HashJoinTable:
    """Materialized build side of a hash join. ``form`` (direct / sorted /
    wide), ``unique`` (N:1, else N:M) and ``num_keys`` say what it chose."""

    def __init__(self, build: Batch, key_names: Sequence[str]):
        self.build = build
        self.key_names = list(key_names)
        self._keys = [build.column(k) for k in key_names]
        self._space = fit_keys(self._keys)
        self._uniques: Optional[np.ndarray] = None
        rows = np.arange(len(build), dtype=np.int64)
        if self._space is None:
            self.form = "wide"
            for column in self._keys:
                rows = rows if column.valid is None else rows[column.valid[rows]]
            slots, _, num_slots = group_codes([c.take(rows) for c in self._keys])
            self._wide = (rows, slots)
        else:
            slots, matchable = encode_keys(self._space, self._keys)
            if matchable is not None:
                rows = rows[matchable]
                slots = slots[rows]
            num_slots = self._space[1]
            self.form = "direct"
            if num_slots > DIRECT_TABLE_FACTOR * len(build):
                self.form = "sorted"
                codes, first, num_slots = number_runs([slots])
                # A last entry no packed key reaches: misses land on it.
                self._uniques = np.append(slots[first], np.iinfo(np.int64).max)
                slots = codes
        #: One more slot that stays empty: where a key without a match goes.
        self._miss = num_slots
        counts = np.bincount(slots, minlength=num_slots + 1)
        self.num_keys = int(np.count_nonzero(counts))
        #: No build key repeats (N:1): a slot is its build row.
        self.unique = int(counts.max()) <= 1
        if self.unique:
            self._row_of = np.full(num_slots + 1, -1, dtype=np.int64)
            self._row_of[slots] = rows
        else:
            self._row_ids = np.append(rows[np.argsort(slots, kind="stable")], 0)
            self._offsets = np.concatenate(([0], np.cumsum(counts)))

    # ------------------------------------------------------------------
    def _slots(self, probe: Batch, key_names: Sequence[str]) -> np.ndarray:
        """The table slot of each probe row's key (an empty one: no match)."""
        keys = [probe.column(k) for k in key_names]
        if self._space is None:
            return self._wide_slots(keys)
        packed, _ = encode_keys(self._space, keys)
        if self._uniques is None:
            return packed
        slots = np.searchsorted(self._uniques, packed)
        slots[self._uniques[slots] != packed] = len(self._uniques) - 1
        return slots

    def _wide_slots(self, keys: List[Column]) -> np.ndarray:
        """Keys too wide to pack: number build and probe rows together, then
        carry the build rows' slots over to the probe rows of equal number."""
        rows, build_slots = self._wide
        both = []
        for ours, theirs in zip(self._keys, keys):
            if ours.dtype is not theirs.dtype:
                # As ``=`` compares. (An all-NULL placeholder type matches nothing.)
                ours, theirs = (
                    Column(DataType.FLOAT64, c.data.astype(np.float64), c.valid)
                    for c in (ours, theirs)
                )
            both.append(Column.concat([ours, theirs]))
        codes, _, groups = group_codes(both)
        slot_of = np.full(groups, self._miss, dtype=np.int64)
        slot_of[codes[rows]] = build_slots
        return slot_of[codes[len(self.build):]]

    def semi_mask(self, probe: Batch, key_names: Sequence[str]) -> np.ndarray:
        """Probe rows that have at least one build match."""
        slots = self._slots(probe, key_names)
        if self.unique:
            return self._row_of[slots] >= 0
        return self._offsets[slots + 1] > self._offsets[slots]

    def probe(
        self, probe: Batch, key_names: Sequence[str], left_outer: bool = False
    ) -> Batch:
        """INNER (or LEFT when ``left_outer``) join of ``probe`` against the
        build side; output schema = probe schema ++ build schema (renamed on
        collision)."""
        left = probe.columns
        out_schema = probe.schema.concat(self.build.schema)
        if left_outer and len(self.build) == 0:
            right = [Column.nulls(col.dtype, len(probe)) for col in self.build.columns]
            return Batch(out_schema, left + right)
        slots = self._slots(probe, key_names)
        if self.unique:
            build_idx = self._row_of[slots]
            matched = build_idx >= 0
            if matched.all():
                left_outer = False
            elif left_outer:
                build_idx = np.where(matched, build_idx, 0)
            else:
                left = [col.filter(matched) for col in left]
                build_idx = build_idx[matched]
        else:
            starts = self._offsets[slots]
            counts = self._offsets[slots + 1] - starts
            matched = counts > 0
            if left_outer:
                # An unmatched row reads one (padding) entry of ``row_ids``.
                counts = np.maximum(counts, 1)
                matched = np.repeat(matched, counts)
            probe_idx = np.repeat(np.arange(len(probe)), counts)
            left = [col.take(probe_idx) for col in left]
            build_idx = _expand_slices(self._row_ids, starts, counts)
        right = [col.take(build_idx) for col in self.build.columns]
        if left_outer:
            right = [col.with_valid(col.valid_mask() & matched) for col in right]
        return Batch(out_schema, left + right)


def _expand_slices(
    row_ids: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenate ``row_ids[starts[i]:starts[i]+counts[i]]`` for all i."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Offsets within the output for each slice.
    out_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    indices = np.repeat(starts - out_starts, counts) + np.arange(total)
    return row_ids[indices.astype(np.int64)]
