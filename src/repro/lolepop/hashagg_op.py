"""HASHAGG — two-phase hash aggregation (Table 1, §4.3, Figure 6).

Phase 1 pre-aggregates each incoming morsel into thread-local partial
results (the paper's fixed-size in-cache tables; our vectorized stand-in
groups within the morsel, which bounds partial size by the morsel's distinct
keys the same way). Phase 2 merges the partials with the per-aggregate merge
function each aggregate declares (COUNT partials merge by SUM, etc. —
:attr:`repro.aggregates.AggSpec.merge`). Whether phase 2 runs, and its
fan-out, are chosen at run time from the partials phase 1 produced:

- **none** — one morsel whose partial is grouped (not a saturated
  pass-through) already holds every group once, in key order: that partial
  is the result, and no merge region runs. A keyless aggregate over one
  morsel takes the same shortcut.
- **single** — when the partials hold at most
  :data:`~repro.lolepop.partition_op.ROWS_PER_PARTITION` rows in total,
  they are concatenated and merged in one work item; there is nothing to
  spread across threads.
- **partitioned** — otherwise the partials are scattered into a
  :class:`~repro.storage.buffer.TupleBuffer` of
  :func:`~repro.lolepop.partition_op.partition_count` hash partitions —
  one per ``ROWS_PER_PARTITION`` partial rows, at most ``num_partitions``
  — by :func:`~repro.lolepop.partition_op.scatter_runs`, PARTITION's own
  scatter, and every non-empty partition is compacted and merged in its
  own work item (the paper's high-cardinality path).

The last two are the same buffer: "single" is the one-partition buffer,
which ``scatter_runs`` fills with no scatter region. So a merge bucket and
a partition are the same amount of work.

The choice is noted on the node span as ``merge`` and ``merge_partitions``
(0 for ``none``).

DISTINCT never reaches this operator: the translator lowers it to
``HASHAGG(ANY-group) → HASHAGG`` per the paper's §2 rewrite.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..aggregates import AggregateCall, lookup
from ..execution.context import ExecutionContext
from ..relational.kernels import grouped_reduce
from ..storage.batch import Batch
from ..storage.buffer import BufferPartition, TupleBuffer
from ..storage.column import Column
from ..storage.keys import group_codes, table_slots
from ..types import DataType, Field, Schema
from .base import Lolepop, OpResult
from .partition_op import partition_count, scatter_runs
from .properties import PhysProps, _missing_columns, unique_groups


#: Slot count of the emulated fixed-size thread-local table (Figure 6).
_LOCAL_TABLE_SLOTS = 4096


def _passthrough_partial(
    batch: Batch, key_names: Sequence[str], tasks: Sequence["HashAggTask"]
) -> Batch:
    """A morsel whose local table saturated: every row becomes its own
    partial group (count partials 1/0, value partials the value itself)."""
    n = len(batch)
    columns = [batch.column(name) for name in key_names]
    fields = [Field(name, col.dtype) for name, col in zip(key_names, columns)]
    for task in tasks:
        if task.func == "count_star":
            columns.append(Column(DataType.INT64, np.ones(n, dtype=np.int64)))
            fields.append(Field(task.name, DataType.INT64))
        elif task.func == "count":
            valid = batch.column(task.arg).valid
            flags = np.ones(n, dtype=np.int64) if valid is None else valid.astype(np.int64)
            columns.append(Column(DataType.INT64, flags))
            fields.append(Field(task.name, DataType.INT64))
        else:
            value = batch.column(task.arg)
            columns.append(value)
            fields.append(Field(task.name, value.dtype))
    return Batch(Schema(fields), columns)


class HashAggTask(NamedTuple):
    """One aggregate computed by HASHAGG: an associative function applied to
    one input column (None for count_star)."""

    name: str
    func: str
    arg: Optional[str]

    @classmethod
    def of(cls, call: AggregateCall) -> "HashAggTask":
        """The task computing the aggregate call ``call``."""
        return cls(call.name, call.func, call.args[0].name if call.args else None)

    @property
    def merge_func(self) -> str:
        return lookup(self.func).merge


def aggregate_batch(
    batch: Batch, key_names: Sequence[str], tasks: Sequence[HashAggTask]
) -> Batch:
    """Group ``batch`` by the keys and evaluate every task; one row per
    group. With no keys, exactly one output row (even for empty input)."""
    if key_names:
        key_columns = [batch.column(name) for name in key_names]
        codes, representatives, num_groups = group_codes(key_columns)
        out_columns = [
            col.take(representatives[:num_groups]) for col in key_columns
        ]
    else:
        codes = np.zeros(len(batch), dtype=np.int64)
        num_groups = 1
        out_columns = []
    fields = [Field(n, c.dtype) for n, c in zip(key_names, out_columns)]
    for task in tasks:
        values = batch.column(task.arg) if task.arg is not None else None
        result = grouped_reduce(task.func, values, codes, num_groups)
        out_columns.append(result)
        fields.append(Field(task.name, result.dtype))
    return Batch(Schema(fields), out_columns)


class HashAggOp(Lolepop):
    legend = "HASHAGG"
    consumes = ("stream",)
    produces = "stream"

    def __init__(
        self,
        input_op: Lolepop,
        key_names: Sequence[str],
        tasks: Sequence[HashAggTask],
        num_partitions: int,
    ):
        super().__init__([input_op])
        self.key_names = list(key_names)
        self.tasks = list(tasks)
        self.num_partitions = num_partitions

    def describe(self) -> str:
        aggs = ", ".join(f"{t.func}({t.arg or '*'})" for t in self.tasks)
        keys = ",".join(self.key_names)
        return f"[{aggs}] by ({keys})"

    # ------------------------------------------------------------------
    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        names = list(self.key_names) + [
            t.arg for t in self.tasks if t.arg is not None
        ]
        return _missing_columns(ins[0] if ins else None, names, "HASHAGG")

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        return unique_groups(ins, self.output_schema, self.key_names)

    def output_schema(self, input_schema: Schema) -> Schema:
        return aggregate_schema(input_schema, self.key_names, self.tasks)

    # ------------------------------------------------------------------
    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        return two_phase_aggregate(
            ctx,
            inputs[0],
            self.key_names,
            self.tasks,
            self.num_partitions,
            two_phase=ctx.config.two_phase_hashagg,
            note=self.note if self.span is not None else None,
        )


def two_phase_aggregate(
    ctx: ExecutionContext,
    batches: List[Batch],
    key_names: Sequence[str],
    tasks: Sequence[HashAggTask],
    num_partitions: int,
    operator: str = "hashagg",
    two_phase: bool = True,
    note=None,
) -> List[Batch]:
    """The paper's two-phase hash aggregation (Figure 6), shared between the
    HASHAGG LOLEPOP and the monolithic baseline's GROUP BY operator.

    ``two_phase=False`` is the single-phase ablation / MonetDB-style path:
    everything concatenated and grouped in one dynamically-growing table.
    """
    key_names = list(key_names)
    tasks = list(tasks)
    out_schema = aggregate_schema(batches[0].schema, key_names, tasks)
    merge_tasks = [HashAggTask(t.name, t.merge_func, t.name) for t in tasks]

    if not key_names:
        # Global aggregate: partials are single rows; one merge region,
        # unless one morsel's partial is already the answer.
        partials = ctx.parallel_for(
            operator, batches, lambda b: aggregate_batch(b, [], tasks)
        )
        if len(partials) > 1:
            ctx.next_phase()
            partials = ctx.parallel_for(
                f"{operator}-merge",
                [Batch.concat(partials)],
                lambda b: aggregate_batch(b, [], merge_tasks),
            )
        return [Batch(out_schema, partials[0].columns)]

    if not two_phase:
        whole = Batch.concat(batches)
        merged = ctx.parallel_for(
            operator, [whole], lambda b: aggregate_batch(b, key_names, tasks)
        )
        return [Batch(out_schema, merged[0].columns)]

    # Phase 1: per-morsel pre-aggregation in cache-resident tables. The
    # paper's local tables are fixed-size and *replace on collision*, so
    # with high-cardinality keys they degrade to a cheap pass-through
    # instead of paying a full grouping that reduces nothing. We emulate
    # the saturation test with one O(n) bucket-occupancy probe.
    def preaggregate(batch: Batch) -> Tuple[Batch, bool]:
        """The morsel's partial, and whether it is grouped (one row per
        key) rather than passed through."""
        if len(batch) > _LOCAL_TABLE_SLOTS // 4:
            keys = [batch.column(name) for name in key_names]
            buckets = table_slots(keys, _LOCAL_TABLE_SLOTS)
            occupancy = np.count_nonzero(
                np.bincount(buckets, minlength=_LOCAL_TABLE_SLOTS)
            )
            if occupancy > _LOCAL_TABLE_SLOTS * 0.7:
                return _passthrough_partial(batch, key_names, tasks), False
        return aggregate_batch(batch, key_names, tasks), True

    outcomes = ctx.parallel_for(operator, batches, preaggregate)
    partials = [partial for partial, _ in outcomes]
    partial_rows = sum(len(p) for p in partials)
    if len(outcomes) == 1 and outcomes[0][1]:
        # One grouped partial holds every group once: nothing to merge.
        mode, merged, merge_partitions = "none", partials, 0
    else:
        # The fan-out follows the partials in hand: partials that fit one
        # partition are one bucket, larger ones are scattered (chunk-list
        # concatenation in the paper; cheap, charged to the same operator).
        buffer = TupleBuffer(
            partials[0].schema,
            partition_count(partial_rows, num_partitions),
            key_names,
        )
        scatter_runs(ctx, operator, buffer, partials)
        mode = "single" if buffer.num_partitions == 1 else "partitioned"
        # An all-empty input is one empty partition, still merged once.
        buckets = [p for p in buffer.partitions if p.num_rows] or buffer.partitions
        merge_partitions = len(buckets)
        ctx.next_phase()

        # Phase 2: merge each bucket with dynamically-growing tables; the
        # item compacts its partition.
        def merge(bucket: BufferPartition) -> Batch:
            return aggregate_batch(bucket.compact(), key_names, merge_tasks)

        merged = ctx.parallel_for(f"{operator}-merge", buckets, merge)
    if note is not None:
        # Recorded on the submitting thread, after the region barriers.
        note(
            partial_rows=partial_rows,
            preagg_partials=len(partials),
            merge=mode,
            merge_partitions=merge_partitions,
        )
    outputs = [Batch(out_schema, m.columns) for m in merged if len(m)]
    return outputs or [Batch.empty(out_schema)]


def aggregate_schema(input_schema: Schema, key_names, tasks) -> Schema:
    """Keys, then one field per task typed by its aggregate's declaration
    (HASHAGG and ORDAGG tasks alike)."""
    fields = [Field(name, input_schema[name].dtype) for name in key_names]
    for task in tasks:
        arg_types = [input_schema[task.arg].dtype] if task.arg is not None else []
        fields.append(Field(task.name, lookup(task.func).result_type(arg_types)))
    return Schema(fields)
