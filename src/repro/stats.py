"""Table statistics for cardinality estimation.

The paper's closing future-work item is cost-based DAG optimization; its
prerequisite is cardinality knowledge. This module collects per-table
statistics by sampling:

- row count (exact),
- per-column NULL fraction and min/max (from the sample),
- per-column distinct-count estimate via the Chao1 estimator
  (``d + f1²/(2·f2)``: observed distincts plus a correction from the
  number of values seen exactly once/twice — a standard species-richness
  estimator that behaves well on both low- and high-cardinality columns).

Statistics are cached per table and re-collected once the table has
moved: :func:`is_stale` is the one staleness rule, shared with the plan
cache (:meth:`repro.server.cache.PreparedPlan.is_current`), so a cached
plan is re-priced after the same churn that re-samples its statistics.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional

import numpy as np

from .storage.column import Column
from .storage.keys import _normalize_values
from .storage.table import Table

DEFAULT_SAMPLE_SIZE = 10_000

#: A snapshot of a table goes stale once the rows written since it was
#: taken exceed this fraction of the rows the table had then (PostgreSQL's
#: auto-analyze scale factor).
STALE_FRACTION = 0.1


def is_stale(version: int, rows: int, table: Table) -> bool:
    """Has ``table`` moved past the snapshot taken at ``version`` (its rows
    written, :attr:`Table.version`) when it held ``rows`` rows? A table
    that was empty then is stale after any write."""
    return table.version - version > STALE_FRACTION * rows


class ColumnStats:
    """Distribution summary of one column."""

    __slots__ = (
        "distinct", "null_fraction", "minimum", "maximum", "dictionary_bytes",
    )

    def __init__(
        self,
        distinct: float,
        null_fraction: float,
        minimum: Any = None,
        maximum: Any = None,
        dictionary_bytes: int = 0,
    ):
        self.distinct = max(1.0, float(distinct))
        self.null_fraction = float(null_fraction)
        self.minimum = minimum
        self.maximum = maximum
        #: Footprint of a string column's dictionary (0 for other types);
        #: a scan carries it once, whatever its row count.
        self.dictionary_bytes = dictionary_bytes

    def __repr__(self) -> str:
        return (
            f"ColumnStats(distinct≈{self.distinct:.0f}, "
            f"nulls={self.null_fraction:.2f})"
        )


class TableStats:
    """Row count plus per-column statistics."""

    __slots__ = ("rows", "columns")

    def __init__(self, rows: int, columns: Dict[str, ColumnStats]):
        self.rows = rows
        self.columns = columns

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def __repr__(self) -> str:
        return f"TableStats({self.rows} rows, {len(self.columns)} columns)"


def chao1_estimate(sample_distinct: int, singletons: int, doubletons: int) -> float:
    """Chao1 lower-bound estimator of the total number of distinct values."""
    if doubletons > 0:
        return sample_distinct + (singletons * singletons) / (2.0 * doubletons)
    # Bias-corrected variant for f2 == 0.
    return sample_distinct + singletons * (singletons - 1) / 2.0


def _column_stats(column: Column, total_rows: int, sample_rows: int) -> ColumnStats:
    n = len(column)
    if n == 0:
        return ColumnStats(distinct=1.0, null_fraction=0.0)
    valid = column.valid_mask()
    null_fraction = 1.0 - float(valid.sum()) / n
    values = _normalize_values(column)[valid]
    if len(values) == 0:
        return ColumnStats(distinct=1.0, null_fraction=null_fraction)
    uniques, counts = np.unique(values, return_counts=True)
    singletons = int((counts == 1).sum())
    doubletons = int((counts == 2).sum())
    estimate = chao1_estimate(len(uniques), singletons, doubletons)
    # A sample can never prove more distincts than the table has rows; and
    # when the sample covered the whole table, the estimate is exact.
    if sample_rows >= total_rows:
        estimate = float(len(uniques))
    estimate = min(estimate, float(total_rows))
    if column.dictionary is not None:
        return ColumnStats(
            estimate, null_fraction, dictionary_bytes=column.dictionary.nbytes
        )
    raw = column.values[valid]
    return ColumnStats(estimate, null_fraction, raw.min(), raw.max())


def collect_table_stats(
    table: Table,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> TableStats:
    """Sample the table and summarize every column."""
    total = table.num_rows
    batch = table.to_batch()
    if total > sample_size:
        rng = np.random.default_rng(seed)
        rows = rng.choice(total, size=sample_size, replace=False)
        batch = batch.take(np.sort(rows))
    sample_rows = len(batch)
    columns = {
        field.name.lower(): _column_stats(col, total, sample_rows)
        for field, col in zip(batch.schema, batch.columns)
    }
    return TableStats(total, columns)


class StatisticsCache:
    """Per-catalog statistics, invalidated per table: an entry is reused
    for the same :class:`Table` object until :func:`is_stale` says it has
    moved, so churn on one table re-samples that table alone and a
    dropped-and-recreated name never serves its predecessor's statistics."""

    def __init__(self, catalog, sample_size: int = DEFAULT_SAMPLE_SIZE):
        self._catalog = catalog
        self._sample_size = sample_size
        #: name -> (weakref to the table, its version, stats)
        self._cache: Dict[str, tuple] = {}

    def table_stats(self, name: str) -> TableStats:
        table = self._catalog.get(name)
        key = name.lower()
        cached = self._cache.get(key)
        if (
            cached is not None
            and cached[0]() is table
            and not is_stale(cached[1], cached[2].rows, table)
        ):
            return cached[2]
        version = table.version
        stats = collect_table_stats(table, self._sample_size)
        self._cache[key] = (weakref.ref(table), version, stats)
        return stats
