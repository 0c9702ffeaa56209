"""SORT — sort every hash partition of a buffer (Table 1).

Operates *in place* on its input buffer and returns the same object; the
paper's morsel-driven BlockQuicksort is modeled by marking the per-partition
sort work items as splittable (DESIGN.md §4 item 2), and each (sub-)sort is
one :func:`repro.storage.keys.stable_order` — a quicksort over normalized
keys, as in the paper. Two access paths match
§4.2: physical reordering of the compacted chunk, or a *permutation vector*
(indices + copied key columns) for wide tuples — and for every spilled
partition, whose file then only grows by the vector.

Sort elision (optimizer step E): when the buffer's existing ordering already
has the required ordering as a prefix, the sort is a no-op.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..execution.context import ExecutionContext
from ..execution.scheduler import SplittableTask
from ..storage.buffer import BufferPartition, TupleBuffer
from ..storage.keys import split_lexsort
from .base import Lolepop, OpResult
from .properties import PhysProps, _missing_columns

#: Tuples at least this wide (columns) sort via permutation vectors.
PERMUTATION_WIDTH_THRESHOLD = 8


class PartitionSortTask(SplittableTask):
    """Sort one hash partition; optionally as parallel sub-sorts.

    ``run`` is the whole-item path (what the simulated scheduler times and
    what the parallel scheduler uses when the region already has enough
    items). ``split``/``finalize`` implement the paper's morsel-driven
    per-partition sort: range-partition on the primary key, sub-sort the
    buckets concurrently, concatenate the orders — bit-identical to the
    serial stable sort (see :func:`repro.storage.keys.split_lexsort`).
    """

    def __init__(
        self,
        partition: BufferPartition,
        key_names: Sequence[str],
        descending: Sequence[bool],
        mode: str,
    ):
        self.partition = partition
        self.key_names = list(key_names)
        self.descending = list(descending)
        # A spilled partition's tuples are written once: its sort appends a
        # permutation vector (§4.2) instead of rewriting them.
        self.mode = "permutation" if partition.is_spilled else mode
        self._finalize_order = None

    # -- whole-item path ----------------------------------------------
    def run(self) -> None:
        sort = (
            self.partition.sort_permutation
            if self.mode == "permutation"
            else self.partition.sort_inplace
        )
        sort(self.key_names, self.descending)

    # -- split path ----------------------------------------------------
    def split(self, max_parts: int) -> Optional[List]:
        if self.partition.is_spilled:
            # A spilled partition is read inside one work item only.
            return None
        columns = self.partition.logical_columns(self.key_names)
        plan = split_lexsort(columns, self.descending, max_parts)
        if plan is None:
            return None
        thunks, self._finalize_order = plan
        return thunks

    def finalize(self, sub_results: List) -> None:
        order = self._finalize_order(sub_results)
        self.partition.apply_sort_order(order, self.key_names, self.mode)


class SortOp(Lolepop):
    legend = "SORT"
    consumes = ("buffer",)
    produces = "buffer"
    buffer_role = "forwards"
    mutates_input = True  # reorders the shared buffer in place
    mutation_effect = "order"

    def __init__(
        self,
        input_op: Lolepop,
        keys: Sequence[Tuple[str, bool]],
        mode: str = "auto",
    ):
        super().__init__([input_op])
        self.keys = [(name, bool(desc)) for name, desc in keys]
        #: 'inplace', 'permutation', or 'auto' (pick by tuple width)
        self.mode = mode

    def describe(self) -> str:
        keys = ",".join(f"{n}{' desc' if d else ''}" for n, d in self.keys)
        return keys + ("" if self.mode == "auto" else f" [{self.mode}]")

    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        return _missing_columns(
            ins[0] if ins else None, [name for name, _ in self.keys], "sort key"
        )

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        source = ins[0] if ins else None
        if source is None or source.kind != "buffer":
            return PhysProps("buffer", ordered_by=tuple(self.keys))
        return PhysProps(
            "buffer",
            schema=source.schema,
            partitioned_by=source.partitioned_by,
            ordered_by=tuple(self.keys),
            unique_on=source.unique_on,
        )

    def order_sensitive(self) -> bool:
        # Runtime sort elision reads the buffer's current ordering, so an
        # unordered peer re-sort changes what this SORT does.
        return True

    def reads_full_schema(self) -> bool:
        return True

    def _resolve_mode(self, buffer: TupleBuffer, ctx: ExecutionContext) -> str:
        if self.mode != "auto":
            return self.mode
        if not ctx.config.permutation_vectors:
            return "inplace"
        wide = len(buffer.schema) >= PERMUTATION_WIDTH_THRESHOLD
        return "permutation" if wide else "inplace"

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        buffer: TupleBuffer = inputs[0]
        required = tuple(self.keys)
        if ctx.config.elide_sorts and buffer.ordering_satisfies(required):
            if self.span is not None:
                self.note(elided=True)
                self.span.attrs["sort_elisions"] += 1
            return buffer
        key_names = [name for name, _ in self.keys]
        descending = [desc for _, desc in self.keys]
        # Offer the post-sort buffer to the materialization manager only
        # when this is the buffer's *first* reordering: a re-sort of an
        # already-sorted buffer is stable on the previous order, so its
        # bytes differ from a fresh PARTITION → SORT of the same fragment.
        first_sort = not buffer.ordered_by
        mode = self._resolve_mode(buffer, ctx)
        tasks = [
            PartitionSortTask(p, key_names, descending, mode)
            for p in buffer.partitions
            if p.num_rows > 1
        ]
        if self.span is not None:
            # What the partitions actually did (spilled ones always permute).
            self.note(
                mode="/".join(sorted({task.mode for task in tasks})) or mode,
                sorted_partitions=len(tasks),
            )
        ctx.parallel_for(
            "sort", tasks, PartitionSortTask.run, splittable=True
        )
        buffer.set_ordering(required)
        if first_sort:
            spec = self._capture_spec()
            if spec is not None:
                manager = getattr(ctx.config, "reuse", None)
                if manager is not None:
                    manager.offer_buffer(spec, buffer)
        return buffer

    def _capture_spec(self):
        """The cache spec of the buffer being sorted, when its producer is
        a capture site — either a PARTITION carrying ``reuse_capture`` or a
        cached-buffer SOURCE (whose re-sort upgrades the cache with an
        ordered entry)."""
        producer = self.inputs[0] if self.inputs else None
        spec = getattr(producer, "reuse_capture", None)
        if spec is not None:
            return spec
        return getattr(producer, "spec", None)
