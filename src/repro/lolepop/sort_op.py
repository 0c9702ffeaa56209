"""SORT — sort every hash partition of a buffer (Table 1).

A chain step (:func:`repro.lolepop.base.run_chain`): it sorts *in place*,
inside the work item that holds the partition, and returns the same buffer
object. The paper's morsel-driven BlockQuicksort is modeled by the
simulated scheduler splitting a sort step's measured duration across
threads (DESIGN.md §4 item 2); each sort is one
:func:`repro.storage.keys.stable_order` — a quicksort over normalized keys,
as in the paper. Two access paths match §4.2: physical reordering of the
compacted chunk, or a *permutation vector* (indices + copied key columns)
for wide tuples — and for a spilled partition whose order a reader after
the chain needs, so that its file only grows by the vector.

Sort elision (optimizer step E): when the buffer's existing ordering already
has the required ordering as a prefix, the sort is a no-op. The chain
decides it before its region runs, from the ordering the steps before this
one leave (:class:`~repro.lolepop.base.BufferView`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..execution.context import ExecutionContext
from ..storage.buffer import TupleBuffer, ordering_satisfies
from .base import BufferView, ChainStep, Lolepop, OpResult, run_chain
from .properties import PhysProps, _missing_columns

#: Tuples at least this wide (columns) sort via permutation vectors.
PERMUTATION_WIDTH_THRESHOLD = 8


class SortOp(Lolepop):
    legend = "SORT"
    consumes = ("buffer",)
    produces = "buffer"
    buffer_role = "forwards"
    mutation_effect = "order"  # reorders the shared buffer in place
    chain_min_rows = 2
    splittable = True

    def __init__(self, input_op: Lolepop, keys: Sequence[Tuple[str, bool]]):
        super().__init__([input_op])
        self.keys = [(name, bool(desc)) for name, desc in keys]

    def describe(self) -> str:
        return ",".join(f"{n}{' desc' if d else ''}" for n, d in self.keys)

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

    def _resolve_mode(self, width: int, ctx: ExecutionContext) -> str:
        if not ctx.config.permutation_vectors:
            return "inplace"
        return "permutation" if width >= PERMUTATION_WIDTH_THRESHOLD else "inplace"

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        return run_chain(ctx, [self], inputs[0], keep=True)[0][0]

    def chain_step(self, ctx: ExecutionContext, view: BufferView) -> ChainStep:
        required = tuple(self.keys)
        if ctx.config.elide_sorts and ordering_satisfies(view.ordered_by, required):
            if self.span is not None:
                self.note(elided=True)
            return None, lambda buffer, _: buffer
        # Offer the post-sort buffer to the materialization manager only
        # when this is the buffer's *first* reordering: a re-sort of an
        # already-sorted buffer is stable on the previous order, so its
        # bytes differ from a fresh PARTITION → SORT of the same fragment.
        first_sort = not view.ordered_by
        view.ordered_by = required
        mode = self._resolve_mode(len(view.schema), ctx)
        key_names = [name for name, _ in self.keys]
        descending = [desc for _, desc in self.keys]

        def sort(partition) -> str:
            # A spilled partition's tuples are written once: when a reader
            # after the chain needs its order, its sort appends a
            # permutation vector (§4.2) instead of rewriting them.
            used = "permutation" if partition.writes_through else mode
            if used == "permutation":
                partition.sort_permutation(key_names, descending)
            else:
                partition.sort_inplace(key_names, descending)
            return used

        def finish(buffer: TupleBuffer, modes: List[Optional[str]]) -> TupleBuffer:
            ran = [m for m in modes if m is not None]
            if self.span is not None:
                # What the partitions actually did (spilled ones a later
                # reader needs permute).
                self.note(mode="/".join(sorted(set(ran))) or mode, sorted_partitions=len(ran))
            buffer.set_ordering(required)
            if first_sort:
                spec = self._capture_spec()
                if spec is not None:
                    manager = getattr(ctx.config, "reuse", None)
                    if manager is not None:
                        manager.offer_buffer(spec, buffer)
            return buffer

        return sort, finish

    def ends_chain(self) -> bool:
        # The materialization manager snapshots the buffer this SORT leaves.
        return self._capture_spec() is not None

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
