"""Vectorized hash join.

Build side: dense-code dictionary over the build keys plus, per code, the
list of build row indices (CSR layout: ``offsets`` + ``row_ids``). Probe
side: map probe keys to codes via sorted-unique binary search, then expand
matches. Supports INNER, LEFT, SEMI and ANTI joins.

NULL join keys never match (SQL equality semantics).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..storage.batch import Batch
from ..storage.column import Column
from ..storage.keys import _normalize_values


def _composite(
    columns: Sequence[Column], build_keys: Optional[Sequence[Column]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """(record array usable with np.unique/searchsorted, non-null mask).

    Both sides of a join must agree on the representation of equal keys:
    string keys compare as *build-side dictionary codes*. Probe columns
    (``build_keys`` given) are translated into that code space; a probe
    string the build dictionary lacks cannot match and is masked out."""
    valid = np.ones(len(columns[0]), dtype=bool)
    parts = []
    for position, col in enumerate(columns):
        if col.valid is not None:
            valid &= col.valid
        build = None if build_keys is None else build_keys[position]
        if build is not None and (col.dictionary is None) != (build.dictionary is None):
            # A string key against a NULL literal's placeholder type.
            valid[:] = False
            parts.append(np.zeros(len(col), dtype=np.int64))
            continue
        if col.dictionary is None:
            parts.append(_normalize_values(col))
            continue
        codes = col.data
        if build is not None:
            mapping = build.dictionary.translate(col.dictionary)
            if mapping is not None:
                codes = mapping[codes]
                valid &= codes >= 0
        parts.append(codes.astype(np.int64))
    if len(parts) == 1:
        return parts[0], valid
    stacked = np.column_stack(parts)
    record = np.ascontiguousarray(stacked).view(
        np.dtype((np.void, stacked.dtype.itemsize * stacked.shape[1]))
    ).ravel()
    return record, valid


class HashJoinTable:
    """Materialized build side of a hash join."""

    def __init__(self, build: Batch, key_names: Sequence[str]):
        self.build = build
        self.key_names = list(key_names)
        self._build_keys = [build.column(k) for k in key_names]
        keys, valid = _composite(self._build_keys)
        rows = np.flatnonzero(valid)
        self._uniques, codes = np.unique(keys[rows], return_inverse=True)
        order = np.argsort(codes, kind="stable")
        self._row_ids = rows[order]
        counts = np.bincount(codes, minlength=len(self._uniques))
        self._offsets = np.concatenate(([0], np.cumsum(counts)))

    @property
    def num_keys(self) -> int:
        return len(self._uniques)

    # ------------------------------------------------------------------
    def _probe_codes(self, probe: Batch, key_names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """(code per probe row, matched mask). Unmatched rows get code -1."""
        keys, valid = _composite(
            [probe.column(k) for k in key_names], self._build_keys
        )
        if len(self._uniques) == 0:
            return np.full(len(probe), -1, dtype=np.int64), np.zeros(len(probe), bool)
        positions = np.searchsorted(self._uniques, keys)
        positions = np.clip(positions, 0, len(self._uniques) - 1)
        matched = (self._uniques[positions] == keys) & valid
        codes = np.where(matched, positions, -1)
        return codes.astype(np.int64), matched

    def semi_mask(self, probe: Batch, key_names: Sequence[str]) -> np.ndarray:
        """Probe rows that have at least one build match."""
        _, matched = self._probe_codes(probe, key_names)
        return matched

    def probe(
        self, probe: Batch, key_names: Sequence[str], left_outer: bool = False
    ) -> Batch:
        """INNER (or LEFT when ``left_outer``) join of ``probe`` against the
        build side; output schema = probe schema ++ build schema (renamed on
        collision)."""
        codes, matched = self._probe_codes(probe, key_names)
        match_rows = np.flatnonzero(matched)
        match_codes = codes[match_rows]
        starts = self._offsets[match_codes]
        ends = self._offsets[match_codes + 1]
        counts = ends - starts
        probe_idx = np.repeat(match_rows, counts)
        # Expand build row ids: for each probe match, the slice of row_ids.
        build_idx = _expand_slices(self._row_ids, starts, counts)
        out_schema = probe.schema.concat(self.build.schema)
        if left_outer:
            missing = np.flatnonzero(~matched)
            probe_idx = np.concatenate([probe_idx, missing])
            order = np.argsort(probe_idx, kind="stable")
            columns: List[Column] = []
            n_match = len(build_idx)
            for col in probe.columns:
                columns.append(col.take(probe_idx[order]))
            for col in self.build.columns:
                values = col.take(build_idx)
                pad = Column.nulls(col.dtype, len(missing))
                merged = Column.concat([values, pad]) if len(missing) else values
                columns.append(merged.take(order))
            return Batch(out_schema, columns)
        columns = [col.take(probe_idx) for col in probe.columns]
        columns.extend(col.take(build_idx) for col in self.build.columns)
        return Batch(out_schema, columns)


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
