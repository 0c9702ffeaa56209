"""Cost model for LOLEPOP plan decisions (paper §7 future work).

The paper translates with heuristics and names cost-based optimization as
future work, spelling out the concrete decision in §3.3: a DISTINCT
aggregate alongside ordered-set aggregates can either be computed by two
hash aggregations or by *reordering the key ranges* and skipping duplicates
in ORDAGG — "in this particular query, we use hash aggregations since the
runtime is dominated by linear scans as opposed to O(n log n) costs for
sorting. If the key range was already sorted by (a,c), a
duplicate-sensitive ORDAGG would be preferable."

This module prices exactly that trade with simple per-row unit costs,
using cardinality estimates from :mod:`repro.logical.cardinality`. It is
the only decision the engine prices; the materialization manager
(:mod:`repro.reuse.manager`) reuses the same unit costs to weigh what an
evicted entry would cost to rebuild.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Relative unit costs (dimensionless; only ratios matter). A hash insert /
#: probe costs a couple of sequential-scan touches while the table is
#: cache-resident, and substantially more once it is not — the cache
#: pressure the paper's §2/§5 discussion of DISTINCT hinges on. Comparison
#: sorting pays log2(n) touches per row.
SCAN_COST_PER_ROW = 1.0
HASH_BASE_COST = 2.0
HASH_MISS_PENALTY = 8.0
#: Above this many groups the aggregation table no longer fits the cache.
CACHE_RESIDENT_GROUPS = 20_000.0
SORT_COST_FACTOR = 1.0


class DistinctStrategy(NamedTuple):
    use_sort: bool
    sort_cost: float
    hash_cost: float


def sort_cost(rows: float) -> float:
    rows = max(rows, 2.0)
    return SORT_COST_FACTOR * rows * math.log2(rows)


def hash_aggregation_cost(rows: float, groups: float) -> float:
    """Two-phase hash aggregation: every input row hashes once, partial
    groups hash again in the merge; the per-touch cost grows with the
    fraction of the table that falls out of cache."""
    pressure = min(1.0, max(groups, 1.0) / CACHE_RESIDENT_GROUPS)
    per_row = HASH_BASE_COST + HASH_MISS_PENALTY * pressure
    return per_row * (rows + max(groups, 1.0))


def ordagg_cost(rows: float) -> float:
    """Aggregating sorted key ranges is a linear scan."""
    return SCAN_COST_PER_ROW * rows


def choose_distinct_strategy(
    input_rows: float,
    distinct_groups: float,
    final_groups: float,
) -> DistinctStrategy:
    """Price the §3.3 trade for one DISTINCT aggregate when a materialized
    buffer already exists (so the *extra* cost of the sort path is one
    re-sort plus a linear scan, not the materialization):

    - sort path: re-sort the buffer by (keys, arg), then one ORDAGG scan;
    - hash path: HASHAGG(keys+arg) over the stream, then HASHAGG(keys)
      over its output.
    """
    via_sort = sort_cost(input_rows) + ordagg_cost(input_rows)
    via_hash = hash_aggregation_cost(
        input_rows, distinct_groups
    ) + hash_aggregation_cost(distinct_groups, final_groups)
    return DistinctStrategy(via_sort < via_hash, via_sort, via_hash)

