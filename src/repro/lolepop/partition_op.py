"""PARTITION — hash-partition a tuple stream into a buffer (Table 1).

Consumes an unordered stream and produces a :class:`TupleBuffer` whose
partitions are decided by the hash of the partition keys (so any grouping
whose keys are a superset of the partition keys stays partition-local).
With no keys, morsels are dealt round-robin — the standalone-ORDER-BY
path.

The partition count is chosen at run time from the rows in hand; the
plan's ``num_partitions`` (``EngineConfig.num_partitions``, the ``k x64``
of EXPLAIN) is its upper bound. The whole input is materialized before the
first scatter, so PARTITION knows its row count and builds
:func:`partition_count` ``(rows, num_partitions)`` partitions: one per
:data:`ROWS_PER_PARTITION` rows, keyed or not. A partition is the unit of
work of the chain that follows (:func:`~repro.lolepop.base.run_chain`):
one item takes it through every SORT, WINDOW, ORDAGG and SCAN step over
the buffer. Always building the cap cut 200 k rows into 3 k-row items
whose cost was mostly fixed interpreter and numpy-call overhead; sizing
from the rows keeps each item large enough to amortize it. Under
``memory_budget_bytes`` the partition is the spill unit, so PARTITION
keeps all ``num_partitions``.

An unbudgeted count is noted on the node span as ``partitions``. A keyed
buffer is clustered on its keys whatever its count, so the plan-time
properties (:func:`hash_clustering`) do not depend on the choice.

Mirrors the paper's §4.4: per-thread scatter, cross-thread chunk-list merge
(free in our single-address-space emulation), then a *compaction* producing
one chunk per partition, which in-place modification (SORT) needs. Every
buffer is built by :func:`scatter_runs`: a keyed scatter work item takes a
run of consecutive morsels holding at least :data:`ROWS_PER_PARTITION`
rows and scatters it at once, by the multiply-shift hash of
:func:`~repro.storage.keys.partition_ids`, so its cost follows the rows,
not the morsel count, and a partition gets one piece per run. Compaction
is lazy: the first work item that reads a partition
(:meth:`~repro.storage.buffer.BufferPartition.pin`, or
:meth:`~repro.storage.buffer.BufferPartition.compact` in a HASHAGG merge
item) concatenates its pieces, so PARTITION runs no compaction pass of its
own.

Under a memory budget the partitions that do not fit are spilled right after
the scatter. What the budget bounds is the buffer's loaded footprint from
then on; the input stream itself is fully materialized operator-at-a-time
before PARTITION sees it, so peak memory is not bounded by the budget. This
spill is the one write of a spilled partition's tuples: the chain after it
reads each spilled partition once per item, and appends to its file only
what a reader after the chain needs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


from ..execution.context import ExecutionContext
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from .base import Lolepop, OpResult
from .properties import PhysProps, _missing_columns


#: Rows one run-time sized partition holds (see the module docstring). A
#: module constant rather than a knob: it prices fixed per-item overhead
#: against per-row work, which is a property of the engine, not the query.
ROWS_PER_PARTITION = 16_384


def partition_count(rows: int, cap: int) -> int:
    """Partitions for ``rows`` rows: one per :data:`ROWS_PER_PARTITION`
    (rounded up, at least one), at most ``cap``. PARTITION, the HASHAGG
    merge and the monolithic baseline all size through here."""
    return min(cap, max(1, -(-rows // ROWS_PER_PARTITION)))


def scatter_runs(
    ctx: ExecutionContext, operator: str, buffer: TupleBuffer, batches: List[Batch]
) -> None:
    """Scatter ``batches`` into ``buffer`` (§4.4's per-thread scatter and
    chunk-list merge) — the one way a buffer is built. With nothing to hash
    (no keys, or one partition) morsel ``i`` goes to partition ``i % n`` on
    the submitting thread, with no work item. Otherwise there is one
    ``operator`` work item per run of consecutive morsels holding at least
    :data:`ROWS_PER_PARTITION` rows (the last run may hold fewer), which
    concatenates its run and scatters it once. So an item's fixed cost is
    paid per partition's worth of rows, and each partition gets one piece
    per run, whatever the morsel size.

    Scattering is a pure function (no shared-buffer writes from work
    items); the pieces are appended after the barrier in submission order,
    so the chunk order is deterministic under real threads. PARTITION, the
    HASHAGG merge and the monolithic baseline all scatter here."""
    count = buffer.num_partitions
    if not buffer.partitioned_by or count == 1:
        buffer.append_pieces([(i % count, batch) for i, batch in enumerate(batches)])
        return
    runs: List[List[Batch]] = []
    held = ROWS_PER_PARTITION
    for batch in batches:
        if held >= ROWS_PER_PARTITION:
            runs.append([])
            held = 0
        runs[-1].append(batch)
        held += len(batch)
    for pieces in ctx.parallel_for(operator, runs, buffer.scatter_run):
        buffer.append_pieces(pieces)


def hash_clustering(
    keys: Sequence[str], num_partitions: int
) -> Optional[Tuple[str, ...]]:
    """``PhysProps.partitioned_by`` of a buffer PARTITION builds: clustered
    on the keys, one co-located partition, or round-robin (``None``)."""
    if keys:
        return tuple(keys)
    return () if num_partitions == 1 else None


class PartitionOp(Lolepop):
    legend = "PARTITION"
    consumes = ("stream",)
    produces = "buffer"
    buffer_role = "creates"

    def __init__(
        self,
        input_op: Lolepop,
        keys: Sequence[str],
        num_partitions: int,
    ):
        super().__init__([input_op])
        self.keys = tuple(keys)
        self.num_partitions = num_partitions
        #: :class:`~repro.reuse.CaptureSpec` attached by the translator when
        #: the cross-query materialization manager wants this site's output
        #: offered to the buffer cache after execution.
        self.reuse_capture = None

    def describe(self) -> str:
        keys = ",".join(self.keys) if self.keys else "round-robin"
        return f"{keys} x{self.num_partitions}"

    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        return _missing_columns(ins[0] if ins else None, self.keys, "partition key")

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        source = ins[0] if ins else None
        return PhysProps(
            "buffer",
            schema=source.schema if source is not None else None,
            partitioned_by=hash_clustering(self.keys, self.num_partitions),
            unique_on=source.unique_on if source is not None else None,
        )

    def reads_full_schema(self) -> bool:
        return True

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        batches: List[Batch] = inputs[0]
        budget = ctx.config.memory_budget_bytes
        num_partitions = self.num_partitions
        if budget is None:
            rows = sum(len(batch) for batch in batches)
            num_partitions = partition_count(rows, num_partitions)
        buffer = TupleBuffer(batches[0].schema, num_partitions, self.keys)
        scatter_runs(ctx, "partition", buffer, batches)
        if budget is not None:
            # The spilling LOLEPOP variant (paper §7): keep the buffer's
            # loaded footprint under the memory budget. A partition goes to
            # disk straight from its scattered pieces (the file is the
            # compacted partition); the write cost is charged like any
            # other work.
            buffer.enable_spilling(ctx.spill_manager, budget)
            ctx.next_phase()
            spilled = ctx.parallel_for(
                "spill", [buffer], lambda b: b.spill_over_budget()
            )
            if self.span is not None and spilled:
                self.note(spilled_partitions=spilled[0])
        if self.span is not None:
            self.note(scatter_keys=",".join(self.keys) or "round-robin")
            if budget is None:
                self.note(partitions=num_partitions)
        if self.reuse_capture is not None:
            manager = getattr(ctx.config, "reuse", None)
            if manager is not None:
                manager.offer_buffer(self.reuse_capture, buffer)
        return buffer
