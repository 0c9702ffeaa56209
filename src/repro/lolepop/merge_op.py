"""MERGE — merge sorted hash partitions into one globally-sorted partition.

Used for result ordering (ORDER BY / LIMIT): partitions are sorted
independently in parallel by SORT, then merged pairwise in rounds (the
paper uses repeated 64-way merges; pairwise rounds have the same asymptotic
work and parallelize the same way in the simulated scheduler).

A LIMIT hint truncates every partition before merging — the paper's
"stop sorting eagerly" LIMIT propagation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..execution.context import ExecutionContext
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..storage.keys import lexsort_indices
from .base import Lolepop, OpResult
from .properties import PhysProps, _missing_columns


def merge_two_sorted(left: Batch, right: Batch, keys: List[Tuple[str, bool]]) -> Batch:
    """Stable two-way merge of batches already sorted by ``keys``: the stable
    sort of their concatenation. Where the keys pack into one integer
    segment, two sorted runs back to back have at most one descent, so the
    sort kernel hands them to numpy's stable sort, which *merges* them in
    linear time; otherwise it is one packed sort."""
    if len(left) == 0:
        return right
    if len(right) == 0:
        return left
    # Concatenating first puts string keys of both runs into one dictionary,
    # so their sort keys compare across the runs like numeric ones.
    merged = Batch.concat([left, right])
    order = lexsort_indices(
        [merged.column(n) for n, _ in keys], [d for _, d in keys]
    )
    return merged.take(order)


class MergeOp(Lolepop):
    legend = "MERGE"
    consumes = ("buffer",)
    produces = "buffer"
    # MERGE reads each partition's ordered run but materializes a fresh
    # single-partition TupleBuffer — it consumes ordering, it does not
    # mutate the input in place (unlike SORT/WINDOW).
    buffer_role = "creates"

    def __init__(
        self,
        input_op: Lolepop,
        keys: Sequence[Tuple[str, bool]],
        limit_hint: Optional[int] = None,
    ):
        super().__init__([input_op])
        self.keys = [(name, bool(desc)) for name, desc in keys]
        self.limit_hint = limit_hint

    def describe(self) -> str:
        keys = ",".join(f"{n}{' desc' if d else ''}" for n, d in self.keys)
        hint = f" limit {self.limit_hint}" if self.limit_hint is not None else ""
        return keys + hint

    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        source = ins[0] if ins else None
        problems = _missing_columns(
            source, [name for name, _ in self.keys], "merge key"
        )
        if source is not None and source.kind == "buffer":
            if not source.ordering_satisfies(self.keys):
                want = ",".join(("-" if d else "") + n for n, d in self.keys)
                have = ",".join(
                    ("-" if d else "") + n for n, d in source.ordered_by
                ) or "(unsorted)"
                problems.append(
                    f"MERGE requires partitions sorted on ({want}) as a "
                    f"prefix, but the buffer is ordered on ({have})"
                )
        return problems

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        source = ins[0] if ins else None
        return PhysProps(
            "buffer",
            schema=source.schema if source is not None else None,
            partitioned_by=(),  # one co-located partition
            ordered_by=tuple(self.keys),
            unique_on=source.unique_on if source is not None else None,
        )

    def order_sensitive(self) -> bool:
        return True

    def reads_full_schema(self) -> bool:
        return True

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        buffer: TupleBuffer = inputs[0]
        runs = [p.ordered_batch() for p in buffer.partitions if p.num_rows > 0]
        if self.limit_hint is not None:
            runs = [run.slice(0, self.limit_hint) for run in runs]
        if not runs:
            runs = [Batch.empty(buffer.schema)]
        if self.span is not None:
            self.note(initial_runs=len(runs))
        rounds = 0
        while len(runs) > 1:
            pairs = [
                (runs[i], runs[i + 1]) if i + 1 < len(runs) else (runs[i], None)
                for i in range(0, len(runs), 2)
            ]

            def merge_pair(pair):
                a, b = pair
                if b is None:
                    return a
                merged = merge_two_sorted(a, b, self.keys)
                if self.limit_hint is not None:
                    merged = merged.slice(0, self.limit_hint)
                return merged

            runs = ctx.parallel_for("merge", pairs, merge_pair)
            ctx.next_phase()
            rounds += 1
        if self.span is not None:
            self.note(merge_rounds=rounds)
        result = TupleBuffer(buffer.schema, 1)
        result.partitions[0].append(runs[0])
        result.set_ordering(tuple(self.keys))
        return result
