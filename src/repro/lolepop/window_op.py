"""WINDOW — evaluate window functions over sorted key ranges (Table 1, §4.3).

Consumes a buffer partitioned by (a subset of) the partition keys and sorted
by ``(partition keys..., order keys...)``; writes one new column per window
call back into the buffer (the materialized results later operators reuse —
the heart of the MAD/MSSD plans).

One WindowOp evaluates *multiple* calls sharing the same (partition, order)
— the paper's observation that segment aggregation can be shared across
frames with one ordering. Range aggregation uses prefix sums (exact) and
doubling tables (min/max) from :mod:`repro.lolepop.segment_tree`, in the
value domain HASHAGG's kernels use, so a frame aggregate has the type of its
GROUP BY form; ordered-set aggregates run ORDAGG's kernel over the whole
partition; navigation and ranking functions are positional formulas on the
key ranges.

``post_items`` are scalar expressions appended to the buffer after the
window columns exist (the paper inlines these into generated code; we
materialize them so later SORT/ORDAGG can use them as keys).

A chain step (:func:`repro.lolepop.base.run_chain`): each work item
evaluates the calls on the one partition it holds, which the SORT before it
in the same item left sorted, and writes the columns back into it — to a
spilled partition's file only when a reader after the chain needs them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..aggregates import FrameBound, FrameSpec, WindowCall
from ..errors import ExecutionError
from ..execution.context import ExecutionContext
from ..expr.eval import evaluate, infer_dtype
from ..expr.nodes import Expr
from ..relational.kernels import from_domain, minmax_identity, sorted_reduce, value_domain
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..storage.column import Column
from ..storage.keys import key_change_flags, lexsort_indices
from ..storage.spill import flat_column_bytes
from ..types import DataType, Field, Schema
from .base import BufferView, ChainStep, Lolepop, OpResult, run_chain
from .properties import PhysProps, _missing_columns
from .ranges import ranges_of
from .segment_tree import PrefixSums, SparseTable


class WindowOp(Lolepop):
    legend = "WINDOW"
    consumes = ("buffer",)
    produces = "buffer"
    buffer_role = "forwards"
    mutation_effect = "schema"  # appends the call columns to the shared buffer
    chain_min_rows = 0  # an empty partition still takes the new columns
    splittable = True

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
                schema = self._schemas(source.schema)[1]
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

    def _schemas(self, schema: Schema) -> Tuple[Schema, Schema]:
        """``schema`` with the call columns, then with the post items too."""
        fields = list(schema.fields)
        for call in self.calls:
            arg_types = [infer_dtype(a, schema) for a in call.args]
            fields.append(Field(call.name, call.spec.result_type(arg_types)))
        window_schema = Schema(fields)
        for name, expr in self.post_items:
            fields.append(Field(name, infer_dtype(expr, Schema(fields))))
        return window_schema, Schema(fields)

    # ------------------------------------------------------------------
    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        return run_chain(ctx, [self], inputs[0], keep=True)[0][0]

    def chain_step(self, ctx: ExecutionContext, view: BufferView) -> ChainStep:
        part_names = [ref.name for ref in self.calls[0].partition_by]
        order_names = [ref.name for ref, _ in self.calls[0].order_by]
        window_schema, schema = self._schemas(view.schema)
        call_fields = window_schema.fields[len(view.schema):]
        view.schema = schema

        def compute(partition) -> int:
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
            return sum(map(flat_column_bytes, columns))

        def finish(buffer: TupleBuffer, appended: List[int]) -> TupleBuffer:
            buffer.columns_appended(schema)
            if self.span is not None:
                self.note(window_calls=len(self.calls))
                self.span.attrs["bytes_materialized"] = sum(appended)
            return buffer

        return compute, finish


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
        return _ranking(func, batch, idx, range_lo, range_hi,
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
    spec = call.spec
    if spec.window_only:
        raise ExecutionError(f"unsupported window function: {func}")
    values = evaluate(call.args[0], batch) if call.args else None
    if spec.merge is None:
        return _ordered_set(call, values, starts, codes)
    frame = call.frame or FrameSpec.whole_partition()
    lo, hi = _frame_bounds(
        frame, idx, range_lo, range_hi,
        batch, part_names, order_names,
    )
    return _frame_aggregate(func, values, lo, hi)


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
    part_names: List[str],
    order_names: List[str],
) -> Column:
    if func == "dense_rank":
        cum = np.cumsum(_peer_first_flags(batch, part_names, order_names))
        return Column(DataType.INT64, cum - cum[range_lo] + 1)
    peer_lo, peer_hi = _peer_bounds(
        batch, part_names, order_names, idx, range_lo, range_hi
    )
    if func == "rank":
        return Column(DataType.INT64, peer_lo - range_lo + 1)
    if func == "percent_rank":
        # (rank - 1) / (partition rows - 1); 0 for a single row.
        size = np.maximum(range_hi - range_lo - 1, 1)
        return Column(DataType.FLOAT64, (peer_lo - range_lo) / size)
    # cume_dist: fraction of rows whose order key <= current row's.
    return Column(DataType.FLOAT64, (peer_hi - range_lo) / (range_hi - range_lo))


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
    func: str, values: Optional[Column], lo: np.ndarray, hi: np.ndarray
) -> Column:
    """A distributive aggregate over each row's frame ``[lo, hi)``, typed
    as its GROUP BY form: sums and extremes stay in the exact value domain
    :func:`~repro.relational.kernels.value_domain` shares with HASHAGG.
    A NULL-free column (no mask) is read as it is: its frame count is the
    frame's width, and its sums and extremes run over the data directly."""
    if func == "count_star":
        return Column(DataType.INT64, (hi - lo).astype(np.int64))
    valid = values.valid
    if valid is None:
        counts = (hi - lo).astype(np.int64)
    else:
        counts = PrefixSums(valid).query_many(lo, hi)
    if func == "count":
        return Column(DataType.INT64, counts)
    has_any = counts > 0
    if func == "sum":
        data = values.data if valid is None else np.where(valid, values.data, 0)
        return Column(values.dtype, PrefixSums(data).query_many(lo, hi), has_any)
    if func == "min" or func == "max":
        data = value_domain(values)
        if valid is not None:
            data = np.where(valid, data, minmax_identity(func, data.dtype))
        return from_domain(values, SparseTable(data, func).query_many(lo, hi), has_any)
    if func == "any":
        # The first non-NULL row of the frame: the least valid position.
        last = len(values) - 1
        if valid is None:
            first = np.where(has_any, lo, last)
        else:
            positions = np.where(valid, np.arange(len(valid)), len(valid))
            first = SparseTable(positions, "min").query_many(lo, hi)
        return values.take(np.minimum(first, last)).with_valid(has_any)
    if func == "bool_and" or func == "bool_or":
        data = values.data if valid is None else valid & values.data
        trues = PrefixSums(data).query_many(lo, hi)
        result = trues > 0 if func == "bool_or" else trues == counts
        return Column(DataType.BOOL, result, has_any)
    raise ExecutionError(f"unsupported frame aggregate: {func}")


def _ordered_set(
    call: WindowCall, values: Column, starts: np.ndarray, codes: np.ndarray
) -> Column:
    """A holistic aggregate over the whole partition: sort each key range
    by value, reduce it with ORDAGG's kernel, broadcast to every row."""
    frame = call.frame or FrameSpec.whole_partition()
    if not frame.is_whole_partition:
        raise ExecutionError(f"{call.func} as a window requires an unbounded frame")
    order = lexsort_indices(
        [Column(DataType.INT64, codes), values], [False, call.within_descending]
    )
    # Codes are sorted already, so the ranges keep their starts.
    per_range = sorted_reduce(
        call.func, values.take(order), starts, codes, len(starts), call.fraction
    )
    return per_range.take(codes)
