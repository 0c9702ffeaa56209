"""WINDOW — evaluate window functions over sorted key ranges (Table 1, §4.3).

Consumes a buffer partitioned by (a subset of) the partition keys and sorted
by ``(partition keys..., order keys...)``; writes one new column per window
call back into the buffer (the materialized results later operators reuse —
the heart of the MAD/MSSD plans).

One WindowOp evaluates *multiple* calls sharing the same (partition, order)
— the paper's observation that segment aggregation can be shared across
frames with one ordering. Range aggregation uses prefix sums (exact) and
doubling tables (min/max) from :mod:`repro.lolepop.segment_tree`; navigation
and ranking functions are positional formulas on the key ranges.

``post_items`` are scalar expressions appended to the buffer after the
window columns exist (the paper inlines these into generated code; we
materialize them so later SORT/ORDAGG can use them as keys).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..aggregates import FrameBound, FrameSpec, WindowCall
from ..errors import ExecutionError
from ..execution.context import ExecutionContext
from ..expr.eval import evaluate, infer_dtype
from ..expr.nodes import Expr
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..storage.column import Column
from ..storage.keys import lexsort_indices
from ..types import DataType, Field, Schema
from .base import Lolepop, OpResult
from .properties import PhysProps, _missing_columns
from .ranges import key_change_flags, ranges_of
from .segment_tree import PrefixSums, SparseTable


class WindowOp(Lolepop):
    legend = "WINDOW"
    consumes = ("buffer",)
    produces = "buffer"
    buffer_role = "forwards"
    mutates_input = True  # appends the call columns to the shared buffer
    mutation_effect = "schema"

    def __init__(
        self,
        input_op: Lolepop,
        calls: Sequence[WindowCall],
        post_items: Optional[Sequence[Tuple[str, Expr]]] = None,
    ):
        super().__init__([input_op])
        self.calls = list(calls)
        self.post_items = list(post_items) if post_items else []
        if self.calls:
            first = self.calls[0].ordering_key()
            if any(c.ordering_key() != first for c in self.calls[1:]):
                raise ExecutionError(
                    "one WINDOW operator requires a shared ordering"
                )

    def describe(self) -> str:
        names = ", ".join(f"{c.func}->{c.name}" for c in self.calls)
        if self.post_items:
            names += f" +{len(self.post_items)} exprs"
        return names

    # ------------------------------------------------------------------
    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        source = ins[0] if ins else None
        first = self.calls[0]
        part_names = [ref.name for ref in first.partition_by]
        order_keys = [(ref.name, bool(desc)) for ref, desc in first.order_by]
        problems = _missing_columns(
            source, part_names + [name for name, _ in order_keys], "WINDOW"
        )
        if source is None or source.kind != "buffer":
            return problems
        if not source.grouping_is_partition_local(part_names):
            part = (
                "round-robin"
                if source.partitioned_by is None
                else ",".join(source.partitioned_by)
            )
            problems.append(
                f"WINDOW partitions by ({','.join(part_names) or 'ALL'}) but "
                f"the buffer is partitioned on ({part})"
            )
        # Partition-key segment: any permutation keeps frames contiguous;
        # order-key segment: exact (name, desc) match, right after it.
        np_ = len(part_names)
        have = tuple((n.lower(), d) for n, d in source.ordered_by)
        wanted_part = sorted(n.lower() for n in part_names)
        prefix_ok = sorted(n for n, _ in have[:np_]) == wanted_part
        wanted_order = tuple((n.lower(), d) for n, d in order_keys)
        order_ok = have[np_ : np_ + len(order_keys)] == wanted_order
        if not (prefix_ok and order_ok and len(have) >= np_ + len(order_keys)):
            want = part_names + [("-" if d else "") + n for n, d in order_keys]
            got = ",".join(("-" if d else "") + n for n, d in have) or "(unsorted)"
            problems.append(
                f"WINDOW requires the buffer sorted on ({','.join(want)}), "
                f"but it is ordered on ({got})"
            )
        return problems

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        source = ins[0] if ins else None
        if source is None or source.kind != "buffer":
            return PhysProps("buffer")
        schema = None
        if source.schema is not None:
            try:
                fields = list(source.schema.fields)
                for call in self.calls:
                    arg_types = [infer_dtype(a, source.schema) for a in call.args]
                    fields.append(Field(call.name, call.spec.result_type(arg_types)))
                partial = Schema(fields)
                for name, expr in self.post_items:
                    fields.append(Field(name, infer_dtype(expr, partial)))
                    partial = Schema(fields)
                schema = partial
            except Exception:
                schema = None
        return PhysProps(
            "buffer",
            schema=schema,
            partitioned_by=source.partitioned_by,
            ordered_by=source.ordered_by,  # append_columns preserves the order
            unique_on=source.unique_on,
        )

    def order_sensitive(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        buffer: TupleBuffer = inputs[0]
        part_names = [ref.name for ref in self.calls[0].partition_by]
        order_names = [ref.name for ref, _ in self.calls[0].order_by]

        fields: List[Field] = list(buffer.schema.fields)
        for call in self.calls:
            arg_types = [infer_dtype(a, buffer.schema) for a in call.args]
            fields.append(Field(call.name, call.spec.result_type(arg_types)))
        window_schema = Schema(fields)
        call_fields = fields[len(buffer.schema):]
        for name, expr in self.post_items:
            fields.append(Field(name, infer_dtype(expr, window_schema)))
        schema = Schema(fields) if self.post_items else window_schema

        def compute(partition) -> None:
            # One work item reads, evaluates and writes back one partition,
            # so a spilled buffer never has more than that one loaded.
            batch = partition.ordered_batch()
            starts, ends, codes = ranges_of(batch, part_names)
            columns = [
                evaluate_window_call(
                    call, field.dtype, batch, starts, ends, codes,
                    part_names, order_names,
                )
                for call, field in zip(self.calls, call_fields)
            ]
            if self.post_items:
                extended = Batch(window_schema, batch.columns + columns)
                columns += [evaluate(expr, extended) for _, expr in self.post_items]
            partition.append_columns(schema, columns)

        ctx.parallel_for("window", buffer.partitions, compute, splittable=True)
        buffer.columns_appended(schema)
        if self.span is not None:
            self.note(window_calls=len(self.calls))
            # Computed columns written into the shared buffer instead of a
            # fresh materialization.
            self.span.attrs["buffer_reuse_hits"] += 1
        return buffer


# ----------------------------------------------------------------------
# Per-call evaluation
# ----------------------------------------------------------------------


def evaluate_window_call(
    call: WindowCall,
    dtype: DataType,
    batch: Batch,
    starts: np.ndarray,
    ends: np.ndarray,
    codes: np.ndarray,
    part_names: List[str],
    order_names: List[str],
) -> Column:
    n = len(batch)
    if n == 0:
        return Column(dtype, np.empty(0, dtype=dtype.numpy_dtype))
    idx = np.arange(n, dtype=np.int64)
    range_lo = starts[codes]
    range_hi = ends[codes]
    func = call.func

    if func == "row_number":
        return Column(DataType.INT64, idx - range_lo + 1)
    if func in ("rank", "dense_rank", "cume_dist", "percent_rank"):
        return _ranking(func, batch, idx, range_lo, range_hi, codes,
                        part_names, order_names)
    if func == "ntile":
        return _ntile(call.offset, idx, range_lo, range_hi)
    if func in ("lag", "lead"):
        return _lag_lead(call, batch, idx, range_lo, range_hi)
    if func in ("first_value", "last_value", "nth_value"):
        frame = call.frame or FrameSpec.running()
        lo, hi = _frame_bounds(
            frame, idx, range_lo, range_hi,
            batch, part_names, order_names,
        )
        return _positional(func, call, batch, lo, hi)
    if func in ("percentile_disc", "percentile_cont", "median"):
        return _window_percentile(call, batch, starts, ends, codes)
    if func == "mode":
        return _window_mode(call, batch, starts, ends, codes)
    if func in ("sum", "count", "count_star", "min", "max", "bool_and", "bool_or", "any"):
        frame = call.frame or FrameSpec.whole_partition()
        lo, hi = _frame_bounds(
            frame, idx, range_lo, range_hi,
            batch, part_names, order_names,
        )
        return _frame_aggregate(func, call, batch, lo, hi)
    raise ExecutionError(f"unsupported window function: {func}")


def _peer_first_flags(
    batch: Batch, part_names: List[str], order_names: List[str]
) -> np.ndarray:
    columns = [batch.column(name) for name in part_names + order_names]
    if not columns:
        flags = np.zeros(len(batch), dtype=bool)
        if len(batch):
            flags[0] = True
        return flags
    return key_change_flags(columns)


def _ranking(
    func: str,
    batch: Batch,
    idx: np.ndarray,
    range_lo: np.ndarray,
    range_hi: np.ndarray,
    codes: np.ndarray,
    part_names: List[str],
    order_names: List[str],
) -> Column:
    peer_first = _peer_first_flags(batch, part_names, order_names)
    if func in ("rank", "percent_rank"):
        peer_start = np.maximum.accumulate(np.where(peer_first, idx, 0))
        rank = peer_start - range_lo + 1
        if func == "rank":
            return Column(DataType.INT64, rank)
        # percent_rank = (rank - 1) / (partition rows - 1); 0 if single row.
        size = np.maximum(range_hi - range_lo - 1, 1)
        values = (rank - 1).astype(np.float64) / size
        return Column(DataType.FLOAT64, values)
    if func == "dense_rank":
        cum = np.cumsum(peer_first)
        return Column(DataType.INT64, cum - cum[range_lo] + 1)
    # cume_dist: fraction of rows whose order key <= current row's.
    peer_positions = np.flatnonzero(peer_first)
    peer_bounds = np.append(peer_positions, len(batch))
    peer_id = np.cumsum(peer_first) - 1
    peer_end = np.minimum(peer_bounds[peer_id + 1], range_hi)
    values = (peer_end - range_lo) / (range_hi - range_lo)
    return Column(DataType.FLOAT64, values.astype(np.float64))


def _ntile(buckets: int, idx: np.ndarray, range_lo: np.ndarray, range_hi: np.ndarray) -> Column:
    position = idx - range_lo
    count = range_hi - range_lo
    base = count // buckets
    remainder = count % buckets
    big = remainder * (base + 1)
    in_big = position < big
    safe_base = np.maximum(base, 1)
    tile = np.where(
        in_big,
        position // np.maximum(base + 1, 1),
        remainder + (position - big) // safe_base,
    )
    return Column(DataType.INT64, (tile + 1).astype(np.int64))


def _lag_lead(
    call: WindowCall,
    batch: Batch,
    idx: np.ndarray,
    range_lo: np.ndarray,
    range_hi: np.ndarray,
) -> Column:
    values = evaluate(call.args[0], batch)
    offset = call.offset if call.func == "lead" else -call.offset
    target = idx + offset
    in_range = (target >= range_lo) & (target < range_hi)
    safe = np.clip(target, 0, len(batch) - 1)
    gathered = values.take(safe)
    result = gathered.with_valid(in_range & gathered.valid_mask())
    if call.default is not None and (~in_range).any():
        default = evaluate(call.default, batch)
        result = result.overlay(~in_range & default.valid_mask(), default)
    return result


def _peer_bounds(
    batch: Batch,
    part_names: List[str],
    order_names: List[str],
    idx: np.ndarray,
    range_lo: np.ndarray,
    range_hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row [first-peer, one-past-last-peer) positions — RANGE frames'
    CURRENT ROW bounds."""
    peer_first = _peer_first_flags(batch, part_names, order_names)
    peer_start = np.maximum.accumulate(np.where(peer_first, idx, 0))
    peer_positions = np.flatnonzero(peer_first)
    bounds = np.append(peer_positions, len(batch))
    peer_id = np.cumsum(peer_first) - 1
    peer_end = np.minimum(bounds[peer_id + 1], range_hi)
    return np.maximum(peer_start, range_lo), peer_end


def _frame_bounds(
    frame: FrameSpec,
    idx: np.ndarray,
    range_lo: np.ndarray,
    range_hi: np.ndarray,
    batch: Optional[Batch] = None,
    part_names: Optional[List[str]] = None,
    order_names: Optional[List[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row half-open [lo, hi) frame bounds, clipped to the key range.

    ROWS frames are positional; RANGE frames replace CURRENT ROW bounds by
    the current row's peer group (equal order keys)."""
    if frame.mode == "range":
        peer_lo, peer_hi = _peer_bounds(
            batch, part_names or [], order_names or [], idx, range_lo, range_hi
        )
        current_lo, current_hi = peer_lo, peer_hi
    else:
        current_lo, current_hi = idx, idx + 1
    if frame.start is FrameBound.UNBOUNDED_PRECEDING:
        lo = range_lo
    elif frame.start is FrameBound.PRECEDING:
        lo = np.maximum(idx - frame.start_offset, range_lo)
    elif frame.start is FrameBound.CURRENT_ROW:
        lo = current_lo
    elif frame.start is FrameBound.FOLLOWING:
        lo = np.minimum(idx + frame.start_offset, range_hi)
    else:
        lo = range_hi
    if frame.end is FrameBound.UNBOUNDED_FOLLOWING:
        hi = range_hi
    elif frame.end is FrameBound.FOLLOWING:
        hi = np.minimum(idx + frame.end_offset + 1, range_hi)
    elif frame.end is FrameBound.CURRENT_ROW:
        hi = current_hi
    elif frame.end is FrameBound.PRECEDING:
        hi = np.maximum(idx - frame.end_offset + 1, range_lo)
    else:
        hi = range_lo
    return lo, np.maximum(hi, lo)


def _positional(
    func: str, call: WindowCall, batch: Batch, lo: np.ndarray, hi: np.ndarray
) -> Column:
    values = evaluate(call.args[0], batch)
    if func == "first_value":
        target = lo
    elif func == "last_value":
        target = hi - 1
    else:  # nth_value
        target = lo + (call.offset - 1)
    in_frame = (target >= lo) & (target < hi)
    safe = np.clip(target, 0, len(batch) - 1)
    gathered = values.take(safe)
    return gathered.with_valid(in_frame & gathered.valid_mask())


def _frame_aggregate(
    func: str, call: WindowCall, batch: Batch, lo: np.ndarray, hi: np.ndarray
) -> Column:
    if func == "count_star":
        return Column(DataType.INT64, (hi - lo).astype(np.int64))
    values = evaluate(call.args[0], batch)
    valid = values.valid_mask().astype(np.float64)
    counts = PrefixSums(valid).query_many(lo, hi)
    if func == "count":
        return Column(DataType.INT64, counts.astype(np.int64))
    has_any = counts > 0
    if func == "sum":
        data = values.values.astype(np.float64) * valid
        sums = PrefixSums(data).query_many(lo, hi)
        if values.dtype is DataType.INT64:
            return Column(DataType.INT64, sums.astype(np.int64), has_any)
        return Column(DataType.FLOAT64, sums, has_any)
    if func in ("min", "max"):
        fill = np.inf if func == "min" else -np.inf
        data = np.where(valid > 0, values.values.astype(np.float64), fill)
        table = SparseTable(data, "min" if func == "min" else "max")
        result = table.query_many(lo, hi)
        if values.dtype in (DataType.INT64, DataType.DATE):
            out = np.zeros(len(result), dtype=values.dtype.numpy_dtype)
            out[has_any] = result[has_any].astype(values.dtype.numpy_dtype)
            return Column(values.dtype, out, has_any)
        return Column(DataType.FLOAT64, np.where(has_any, result, 0.0), has_any)
    if func in ("bool_and", "bool_or"):
        flags = values.values.astype(bool) & (valid > 0)
        trues = PrefixSums(flags.astype(np.float64)).query_many(lo, hi)
        if func == "bool_or":
            return Column(DataType.BOOL, trues > 0, has_any)
        return Column(DataType.BOOL, trues >= counts, has_any)
    if func == "any":
        return _positional("first_value", call, batch, lo, hi)
    raise ExecutionError(f"unsupported frame aggregate: {func}")


def _window_mode(
    call: WindowCall,
    batch: Batch,
    starts: np.ndarray,
    ends: np.ndarray,
    codes: np.ndarray,
) -> Column:
    """Whole-partition mode broadcast to every row (the monolithic engine's
    ordered-set rewrite routes mode through here)."""
    frame = call.frame or FrameSpec.whole_partition()
    if not frame.is_whole_partition:
        raise ExecutionError("mode as a window requires an unbounded frame")
    values = evaluate(call.args[0], batch)
    descending = bool(call.order_by[0][1]) if call.order_by else False
    order = lexsort_indices([Column(DataType.INT64, codes), values], [False, descending])
    sorted_vals = values.take(order)
    sorted_codes = codes[order]
    n = len(batch)
    num_groups = len(starts)
    change = key_change_flags([Column(DataType.INT64, sorted_codes), sorted_vals])
    run_starts = np.flatnonzero(change)
    run_ends = np.append(run_starts[1:], n)
    run_lengths = (run_ends - run_starts).astype(np.int64)
    run_codes = sorted_codes[run_starts]
    keep = sorted_vals.valid_mask()[run_starts]
    run_starts, run_lengths, run_codes = (
        run_starts[keep], run_lengths[keep], run_codes[keep]
    )
    winner_order = np.lexsort((run_starts, -run_lengths, run_codes))
    present, first = np.unique(run_codes[winner_order], return_index=True)
    winner_rows = run_starts[winner_order][first]
    return sorted_vals.take(winner_rows).scatter(present, num_groups).take(codes)


def _window_percentile(
    call: WindowCall,
    batch: Batch,
    starts: np.ndarray,
    ends: np.ndarray,
    codes: np.ndarray,
) -> Column:
    """Ordered-set aggregate as a window over the whole partition: compute
    per range on range-sorted values, broadcast to every row."""
    frame = call.frame or FrameSpec.whole_partition()
    if not frame.is_whole_partition:
        raise ExecutionError(
            "ordered-set window aggregates require an unbounded frame"
        )
    values = evaluate(call.args[0], batch)
    # Ordered-set windows honor their WITHIN GROUP direction (the monolithic
    # engine's GROUP-BY rewrite routes DESC percentiles through here).
    descending = bool(call.order_by[0][1]) if call.order_by else False
    order = lexsort_indices([Column(DataType.INT64, codes), values], [False, descending])
    sorted_vals = values.take(order)
    sorted_codes = codes[order]
    num_groups = len(starts)
    counts = np.bincount(
        sorted_codes[sorted_vals.valid_mask()], minlength=num_groups
    )
    group_starts = np.searchsorted(sorted_codes, np.arange(num_groups))
    group_valid = counts > 0
    fraction = call.fraction if call.fraction is not None else 0.5
    safe = np.maximum(counts, 1)
    if call.func in ("percentile_disc",):
        offsets = np.clip(np.ceil(fraction * safe).astype(np.int64) - 1, 0, safe - 1)
        per_group = sorted_vals.take(group_starts + offsets)
        return per_group.take(codes).with_valid(group_valid[codes])
    positions = fraction * (safe - 1)
    lower = np.floor(positions).astype(np.int64)
    upper = np.ceil(positions).astype(np.int64)
    weights = positions - lower
    low_vals = sorted_vals.values[group_starts + lower].astype(np.float64)
    high_vals = sorted_vals.values[group_starts + upper].astype(np.float64)
    per_group = low_vals * (1.0 - weights) + high_vals * weights
    return Column(
        DataType.FLOAT64, per_group[codes], group_valid[codes]
    )
