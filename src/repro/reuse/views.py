"""Incrementally-maintained aggregate views.

A *view* is the materialized state of one GROUP BY over a Scan +
Filter/Project fragment: the distinct group keys plus one **partial**
column per aggregate, in :func:`~repro.storage.keys.group_codes` order.
Partials use exactly the engine's two-phase aggregation algebra
(:attr:`~repro.aggregates.AggSpec.merge`), which gives two
capabilities for free:

- **Delta maintenance** — an inserted base-table batch is mapped through
  the fragment, pre-aggregated, and merged into the state with the same
  merge functions phase 2 of HASHAGG uses (insert-only; truncation
  invalidates).
- **Lattice reuse** — any *coarser* grouping (a subset of the view's
  keys) over a subset of its aggregates is answered by re-aggregating
  the state, the same re-grouping step the translator emits for
  GROUPING SETS subsets. ROLLUP/CUBE/GROUPING SETS plans are served one
  grouping set at a time, each re-aggregated from the finer state.

Only decomposable aggregates participate (SUM/COUNT/MIN/MAX and the bool
reductions; AVG and friends are decomposed into SUM+COUNT before the
engine sees them). ``any`` is excluded — it is input-order sensitive, so
a view-served result could legally differ from a fresh scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aggregates import PRIMITIVES, lookup
from ..expr.nodes import ColumnRef
from ..logical.plan import Aggregate
from ..relational.kernels import grouped_reduce
from ..storage.batch import Batch
from ..storage.column import Column
from ..storage.keys import group_codes
from ..storage.spill import approx_column_bytes
from ..types import DataType
from .signature import view_fragment

#: Aggregates a view can maintain and re-aggregate: those with a declared
#: merge function, minus the order-sensitive ``any``.
VIEW_FUNCS = frozenset(
    name for name, spec in PRIMITIVES.items()
    if spec.merge is not None and name != "any"
)

#: One aggregate's identity inside a view: ``(func, arg column or None)``.
AggId = Tuple[str, Optional[str]]


def analyze_view(plan: Aggregate) -> Optional[Tuple]:
    """``(core, projection, group_cols, agg_ids)`` when ``plan`` is a
    grouped aggregation a view can answer, else ``None``.

    ``core``/``projection`` are the split fragment signature of
    :func:`~repro.reuse.signature.view_fragment`: a view matches a
    request when the cores are equal and the request's projection,
    group columns, and aggregates are subsets of the view's.

    Requirements: at least one group key, a Scan + Filter/Project child
    fragment, and every aggregate a plain (non-DISTINCT, non-ordered)
    call of a decomposable function over at most one column reference.
    """
    if not plan.group_names:
        return None
    fragment = view_fragment(plan.child)
    if fragment is None:
        return None
    core, projection = fragment
    agg_ids: List[AggId] = []
    for call in plan.aggregates:
        if call.func not in VIEW_FUNCS:
            return None
        if call.distinct or call.order_by or call.fraction is not None:
            return None
        if len(call.args) > 1:
            return None
        if call.args and not isinstance(call.args[0], ColumnRef):
            return None
        agg_ids.append((call.func, call.args[0].name if call.args else None))
    return core, projection, tuple(plan.group_names), tuple(agg_ids)


class ViewState:
    """Materialized partial-aggregate state of one view."""

    __slots__ = ("group_cols", "groups", "partials", "num_groups", "source_rows")

    def __init__(
        self,
        group_cols: Tuple[str, ...],
        groups: Dict[str, Column],
        partials: Dict[AggId, Column],
        num_groups: int,
        source_rows: int,
    ):
        self.group_cols = group_cols
        #: One column per group key, one row per distinct group.
        self.groups = groups
        #: One partial column per aggregate id, aligned with ``groups``.
        self.partials = partials
        self.num_groups = num_groups
        #: Base rows folded in so far (drives rebuild-cost estimates).
        self.source_rows = source_rows

    def approx_bytes(self) -> int:
        return sum(
            approx_column_bytes(col)
            for col in list(self.groups.values()) + list(self.partials.values())
        )


def build_state(
    batch: Batch, group_cols: Tuple[str, ...], agg_ids: Tuple[AggId, ...]
) -> ViewState:
    """Aggregate one (already stage-mapped) batch into view state."""
    key_columns = [batch.column(name) for name in group_cols]
    codes, representatives, num_groups = group_codes(key_columns)
    groups = {
        name: col.take(representatives)
        for name, col in zip(group_cols, key_columns)
    }
    partials: Dict[AggId, Column] = {}
    for func, arg in agg_ids:
        values = batch.column(arg) if arg is not None else None
        partials[(func, arg)] = grouped_reduce(func, values, codes, num_groups)
    return ViewState(tuple(group_cols), groups, partials, num_groups, len(batch))


def merge_states(base: ViewState, delta: ViewState) -> ViewState:
    """Merge a delta's partials into the base state (phase-2 algebra).

    Both states are re-keyed over the union of their groups; partials of
    groups present in both merge with the aggregate's merge function.
    """
    merged_keys = [
        Column.concat([base.groups[name], delta.groups[name]])
        for name in base.group_cols
    ]
    codes, representatives, num_groups = group_codes(merged_keys)
    groups = {
        name: col.take(representatives)
        for name, col in zip(base.group_cols, merged_keys)
    }
    partials: Dict[AggId, Column] = {}
    for agg_id, partial in base.partials.items():
        func = agg_id[0]
        combined = Column.concat([partial, delta.partials[agg_id]])
        partials[agg_id] = grouped_reduce(
            lookup(func).merge, combined, codes, num_groups
        )
    return ViewState(
        base.group_cols,
        groups,
        partials,
        num_groups,
        base.source_rows + delta.source_rows,
    )


def _merge_for_output(
    func: str, partial: Column, codes: np.ndarray, num_groups: int
) -> Column:
    """Re-aggregate one partial column to a coarser grouping, matching the
    engine's phase-2 output exactly. Over an empty state — the
    global-aggregate-over-empty-input case — that is the aggregate of no
    rows, where COUNT is 0, not the NULL its merge (SUM) gives."""
    merge = func if not len(partial) else lookup(func).merge
    return grouped_reduce(merge, partial, codes, num_groups)


def serve_plan(state: ViewState, plan: Aggregate) -> List[Batch]:
    """Answer ``plan`` from ``state`` — one output batch per grouping set
    (a plain GROUP BY is a single set over all its keys). The caller has
    already checked that the plan's keys/aggregates are subsets of the
    view's via :func:`analyze_view`."""
    if plan.grouping_sets is not None:
        sets = [tuple(gs) for gs in plan.grouping_sets]
    else:
        sets = [tuple(plan.group_names)]
    batches: List[Batch] = []
    for grouping_set in sets:
        batches.append(_serve_set(state, plan, grouping_set))
    return batches


def _serve_set(
    state: ViewState, plan: Aggregate, grouping_set: Tuple[str, ...]
) -> Batch:
    if grouping_set:
        key_columns = [state.groups[name] for name in grouping_set]
        codes, representatives, num_groups = group_codes(key_columns)
        taken = {
            name: col.take(representatives)
            for name, col in zip(grouping_set, key_columns)
        }
    else:
        # The grand-total set: one group spanning the whole state (one
        # output row even over an empty base, like keyless HASHAGG).
        codes = np.zeros(state.num_groups, dtype=np.int64)
        num_groups = 1
        taken = {}
    columns: List[Column] = []
    for name in plan.group_names:
        if name in taken:
            columns.append(taken[name])
        else:
            dtype = plan.schema[name].dtype
            columns.append(Column.constant(dtype, None, num_groups))
    for call in plan.aggregates:
        arg = call.args[0].name if call.args else None
        partial = state.partials[(call.func, arg)]
        columns.append(_merge_for_output(call.func, partial, codes, num_groups))
    if plan.grouping_sets is not None:
        mask = plan.grouping_id_of(grouping_set)
        columns.append(
            Column(DataType.INT64, np.full(num_groups, mask, dtype=np.int64))
        )
    return Batch(plan.schema, columns)


__all__ = [
    "VIEW_FUNCS",
    "AggId",
    "ViewState",
    "analyze_view",
    "build_state",
    "merge_states",
    "serve_plan",
]
