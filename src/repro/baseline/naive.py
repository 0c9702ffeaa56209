"""Tuple-at-a-time interpreted engine (PostgreSQL stand-in).

Executes the logical plan directly over Python dict rows with zero
vectorization — every expression, join probe and aggregate update is an
interpreted per-row step. Besides standing in for PostgreSQL's performance
class in Table 2, this engine is the *oracle*: its aggregate and window
semantics are written independently from the vectorized kernels, and the
differential tests require all engines to agree with it.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..aggregates import AggregateCall, FrameBound, FrameSpec, WindowCall
from ..errors import ExecutionError, NotSupportedError
from ..execution.context import EngineConfig
from ..expr.eval import evaluate_row
from ..logical import (
    Aggregate,
    Filter,
    Join,
    JoinKind,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    UnionAll,
    Window,
)
from ..storage.batch import Batch
from ..storage.table import Catalog
from ..types import Schema
from ..lolepop.engine import QueryResult

Row = Dict[str, Any]


def _null_safe_sort(
    rows: List[Row], keys: Sequence[Tuple[str, bool]]
) -> List[Row]:
    """Stable multi-key sort, NULLS LAST per key regardless of direction."""
    out = list(rows)
    for name, descending in reversed(list(keys)):
        nonnull = [r for r in out if r[name] is not None]
        nulls = [r for r in out if r[name] is None]
        nonnull.sort(key=lambda r: r[name], reverse=descending)
        out = nonnull + nulls
    return out


class NaiveRowEngine:
    name = "naive"

    def __init__(self, catalog: Catalog, config: Optional[EngineConfig] = None):
        self.catalog = catalog
        self.config = config or EngineConfig()

    # ------------------------------------------------------------------
    def run(self, plan: LogicalPlan) -> QueryResult:
        start = time.perf_counter()
        rows = self._execute(plan)
        elapsed = time.perf_counter() - start
        batch = _rows_to_batch(rows, plan.schema)
        # A row engine has no intra-query parallelism: simulated == serial.
        return QueryResult(batch, elapsed, elapsed, None, [])

    # ------------------------------------------------------------------
    def _execute(self, plan: LogicalPlan) -> List[Row]:
        if isinstance(plan, Scan):
            return self._scan(plan)
        if isinstance(plan, Filter):
            child = self._execute(plan.child)
            return [
                row for row in child
                if evaluate_row(plan.predicate, row) is True
            ]
        if isinstance(plan, Project):
            child = self._execute(plan.child)
            return [
                {name: evaluate_row(expr, row) for name, expr in plan.items}
                for row in child
            ]
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, Aggregate):
            return self._aggregate(plan)
        if isinstance(plan, Window):
            return self._window(plan)
        if isinstance(plan, Sort):
            return _null_safe_sort(self._execute(plan.child), plan.keys)
        if isinstance(plan, Limit):
            child = self._execute(plan.child)
            end = None if plan.limit is None else plan.offset + plan.limit
            return child[plan.offset : end]
        if isinstance(plan, UnionAll):
            rows: List[Row] = []
            names = plan.schema.names()
            for child in plan.children:
                for row in self._execute(child):
                    rows.append(dict(zip(names, row.values())))
            return rows
        raise ExecutionError(f"naive engine cannot execute {plan.label()}")

    def _scan(self, plan: Scan) -> List[Row]:
        table = self.catalog.get(plan.table_name)
        names = plan.schema.names()
        rows = table.to_batch().select(names).rows()
        return [dict(zip(names, row)) for row in rows]

    # ------------------------------------------------------------------
    def _join(self, plan: Join) -> List[Row]:
        left_rows = self._execute(plan.left)
        right_rows = self._execute(plan.right)
        index: Dict[Tuple, List[Row]] = {}
        for row in right_rows:
            key = tuple(row[name] for name in plan.right_keys)
            if any(v is None for v in key):
                continue
            index.setdefault(key, []).append(row)
        out: List[Row] = []
        if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
            want = plan.kind is JoinKind.SEMI
            for row in left_rows:
                key = tuple(row[name] for name in plan.left_keys)
                matched = not any(v is None for v in key) and key in index
                if matched == want:
                    out.append(row)
            return out
        out_names = plan.schema.names()
        right_names = plan.right.schema.names()
        pad = {name: None for name in right_names}
        for row in left_rows:
            key = tuple(row[name] for name in plan.left_keys)
            matches = (
                index.get(key, []) if not any(v is None for v in key) else []
            )
            if matches:
                for match in matches:
                    merged = list(row.values()) + [
                        match[name] for name in right_names
                    ]
                    out.append(dict(zip(out_names, merged)))
            elif plan.kind is JoinKind.LEFT:
                merged = list(row.values()) + [None] * len(right_names)
                out.append(dict(zip(out_names, merged)))
        return out

    # ------------------------------------------------------------------
    def _aggregate(self, plan: Aggregate) -> List[Row]:
        rows = self._execute(plan.child)
        if plan.grouping_sets is None:
            return self._aggregate_one_set(
                rows, plan.group_names, plan.aggregates, None, None, plan
            )
        out: List[Row] = []
        for grouping_set in plan.grouping_sets:
            out.extend(
                self._aggregate_one_set(
                    rows,
                    list(grouping_set),
                    plan.aggregates,
                    plan.group_names,
                    plan.grouping_id_of(grouping_set),
                    plan,
                )
            )
        return out

    def _aggregate_one_set(
        self,
        rows: List[Row],
        keys: List[str],
        calls: List[AggregateCall],
        all_keys: Optional[List[str]],
        grouping_id: Optional[int],
        plan: Aggregate,
    ) -> List[Row]:
        groups: Dict[Tuple, List[Row]] = {}
        order: List[Tuple] = []
        for row in rows:
            key = tuple(row[name] for name in keys)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not keys and not groups:
            groups[()] = []
            order.append(())
        out: List[Row] = []
        for key in order:
            group_rows = groups[key]
            result: Row = dict(zip(keys, key))
            if all_keys is not None:
                result = {
                    name: result.get(name) for name in all_keys
                }
            for call in calls:
                result[call.name] = _evaluate_aggregate(call, group_rows)
            if grouping_id is not None:
                result["grouping_id"] = grouping_id
            out.append(result)
        return out

    # ------------------------------------------------------------------
    def _window(self, plan: Window) -> List[Row]:
        rows = self._execute(plan.child)
        # Window output preserves input row identity; compute per call and
        # attach by object identity.
        results: List[Dict[int, Any]] = []
        for call in plan.calls:
            results.append(_evaluate_window(call, rows))
        out: List[Row] = []
        for row in rows:
            new_row = dict(row)
            for call, values in zip(plan.calls, results):
                new_row[call.name] = values[id(row)]
            out.append(new_row)
        return out


# ----------------------------------------------------------------------
# Aggregate semantics (independent reference implementations)
# ----------------------------------------------------------------------


def _argument_values(call: AggregateCall, rows: List[Row]) -> List[Any]:
    name = call.args[0].name
    return [row[name] for row in rows]


def _evaluate_aggregate(call: AggregateCall, rows: List[Row]) -> Any:
    func = call.func
    if func == "count_star":
        return len(rows)
    values = _argument_values(call, rows)
    nonnull = [v for v in values if v is not None]
    if call.distinct:
        seen = []
        deduped = []
        for value in nonnull:
            if value not in seen:
                seen.append(value)
                deduped.append(value)
        nonnull = deduped
    if func == "count":
        return len(nonnull)
    if func == "sum":
        return sum(nonnull) if nonnull else None
    if func == "min":
        return min(nonnull) if nonnull else None
    if func == "max":
        return max(nonnull) if nonnull else None
    if func == "any":
        return nonnull[0] if nonnull else None
    if func == "bool_and":
        return all(nonnull) if nonnull else None
    if func == "bool_or":
        return any(nonnull) if nonnull else None
    if func in ("percentile_disc", "percentile_cont"):
        ref, descending = call.order_by[0]
        ordered = [v for v in nonnull]
        ordered.sort(reverse=descending)
        return _percentile(func, ordered, 0.5 if call.fraction is None else call.fraction)
    if func == "mode":
        _, descending = call.order_by[0]
        ordered = sorted(nonnull, reverse=descending)
        best_value, best_length = None, 0
        position = 0
        while position < len(ordered):
            end = position
            while end < len(ordered) and ordered[end] == ordered[position]:
                end += 1
            if end - position > best_length:
                best_value, best_length = ordered[position], end - position
            position = end
        return best_value
    raise NotSupportedError(f"naive engine: aggregate {func}")


def _percentile(func: str, ordered: List[Any], fraction: float) -> Any:
    n = len(ordered)
    if n == 0:
        return None
    if func == "percentile_disc":
        index = max(0, min(n - 1, math.ceil(fraction * n) - 1))
        return ordered[index]
    position = fraction * (n - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower]) * (1 - weight) + float(ordered[upper]) * weight


# ----------------------------------------------------------------------
# Window semantics
# ----------------------------------------------------------------------


def _evaluate_window(call: WindowCall, rows: List[Row]) -> Dict[int, Any]:
    partitions: Dict[Tuple, List[Row]] = {}
    part_names = [ref.name for ref in call.partition_by]
    order_keys = [(ref.name, desc) for ref, desc in call.order_by]
    for row in rows:
        key = tuple(row[name] for name in part_names)
        partitions.setdefault(key, []).append(row)
    out: Dict[int, Any] = {}
    for group in partitions.values():
        ordered = _null_safe_sort(group, order_keys)
        _evaluate_window_partition(call, ordered, order_keys, out)
    return out


def _frame_range(
    frame: FrameSpec,
    index: int,
    size: int,
    peers: Optional[Tuple[int, int]] = None,
) -> Tuple[int, int]:
    """[lo, hi) of the frame; ``peers`` is the current row's (first peer,
    one-past-last-peer) for RANGE frames."""
    if frame.mode == "range" and peers is not None:
        current_lo, current_hi = peers
    else:
        current_lo, current_hi = index, index + 1
    if frame.start is FrameBound.UNBOUNDED_PRECEDING:
        lo = 0
    elif frame.start is FrameBound.PRECEDING:
        lo = max(0, index - frame.start_offset)
    elif frame.start is FrameBound.CURRENT_ROW:
        lo = current_lo
    elif frame.start is FrameBound.FOLLOWING:
        lo = min(size, index + frame.start_offset)
    else:
        lo = size
    if frame.end is FrameBound.UNBOUNDED_FOLLOWING:
        hi = size
    elif frame.end is FrameBound.FOLLOWING:
        hi = min(size, index + frame.end_offset + 1)
    elif frame.end is FrameBound.CURRENT_ROW:
        hi = current_hi
    elif frame.end is FrameBound.PRECEDING:
        hi = max(0, index - frame.end_offset + 1)
    else:
        hi = 0
    return lo, max(lo, hi)


def _evaluate_window_partition(
    call: WindowCall,
    ordered: List[Row],
    order_keys: List[Tuple[str, bool]],
    out: Dict[int, Any],
) -> None:
    func = call.func
    size = len(ordered)
    arg = call.args[0].name if call.args else None

    def order_tuple(row: Row) -> Tuple:
        return tuple(row[name] for name, _ in order_keys)

    def peers_of(index: int) -> Tuple[int, int]:
        key = order_tuple(ordered[index])
        first = next(
            i for i, o in enumerate(ordered) if order_tuple(o) == key
        )
        last = max(
            i for i, o in enumerate(ordered) if order_tuple(o) == key
        )
        return first, last + 1

    for index, row in enumerate(ordered):
        if func == "row_number":
            out[id(row)] = index + 1
        elif func in ("rank", "percent_rank"):
            # 1 + number of rows strictly before the first peer.
            first_peer = next(
                i for i, o in enumerate(ordered)
                if order_tuple(o) == order_tuple(row)
            )
            if func == "rank":
                out[id(row)] = first_peer + 1
            else:
                out[id(row)] = first_peer / max(size - 1, 1)
        elif func == "dense_rank":
            seen: List[Tuple] = []
            for other in ordered[: index + 1]:
                key = order_tuple(other)
                if key not in seen:
                    seen.append(key)
            out[id(row)] = len(seen)
        elif func == "cume_dist":
            # Fraction of partition rows up to and including the last peer.
            last_peer = max(
                i for i, o in enumerate(ordered)
                if order_tuple(o) == order_tuple(row)
            )
            out[id(row)] = (last_peer + 1) / size
        elif func == "ntile":
            buckets = call.offset
            base, remainder = divmod(size, buckets)
            big = remainder * (base + 1)
            if index < big:
                out[id(row)] = index // (base + 1) + 1
            else:
                out[id(row)] = remainder + (index - big) // max(base, 1) + 1
        elif func in ("lag", "lead"):
            offset = call.offset if func == "lead" else -call.offset
            target = index + offset
            if 0 <= target < size:
                out[id(row)] = ordered[target][arg]
            elif call.default is not None:
                out[id(row)] = evaluate_row(call.default, row)
            else:
                out[id(row)] = None
        elif func in ("first_value", "last_value", "nth_value"):
            frame = call.frame or FrameSpec.running()
            lo, hi = _frame_range(frame, index, size, peers_of(index))
            if lo >= hi:
                out[id(row)] = None
            elif func == "first_value":
                out[id(row)] = ordered[lo][arg]
            elif func == "last_value":
                out[id(row)] = ordered[hi - 1][arg]
            else:
                target = lo + call.offset - 1
                out[id(row)] = ordered[target][arg] if target < hi else None
        elif func in ("percentile_disc", "percentile_cont", "mode"):
            # Over the whole partition, in the WITHIN GROUP direction.
            pseudo = AggregateCall(
                "_w", func, call.args, order_by=[(call.args[0], call.within_descending)],
                fraction=call.fraction,
            )
            out[id(row)] = _evaluate_aggregate(pseudo, ordered)
        else:
            frame = call.frame or (
                FrameSpec.running() if order_keys else FrameSpec.whole_partition()
            )
            lo, hi = _frame_range(frame, index, size, peers_of(index))
            window_rows = ordered[lo:hi]
            pseudo = AggregateCall("_w", func, call.args)
            out[id(row)] = _evaluate_aggregate(pseudo, window_rows)


def _rows_to_batch(rows: List[Row], schema: Schema) -> Batch:
    data = {
        field.name: [row[field.name] for row in rows] for field in schema
    }
    return Batch.from_pydict(schema, data)
