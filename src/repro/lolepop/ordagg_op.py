"""ORDAGG — aggregate sorted key ranges (Table 1, §4.3).

Consumes a buffer partitioned by (a subset of) the group keys and sorted by
``(group keys..., value order)``; produces one output row per key range
without any hash table — the paper's central saving when ordered-set
aggregates force sorting anyway.

Supports, per task:

- associative aggregates over ranges (SUM/COUNT/MIN/MAX/ANY/...),
- the same with ``distinct=True``, skipping duplicates positionally (valid
  only when the buffer is sorted by the task's argument — the paper's
  "duplicate-sensitive ORDAGG"),
- holistic aggregates (``percentile_disc``/``percentile_cont``/``mode``),
  computed on the sorted range by the kernel WINDOW shares (NULLs sort last,
  so the valid prefix is contiguous).

A chain step (:func:`repro.lolepop.base.run_chain`): each work item
aggregates the one partition it holds, as the SORT before it in the same
item left it, and the output stream is the items' batches in partition
order.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..aggregates import WITHIN_GROUP_FUNCS, lookup
from ..execution.context import ExecutionContext
from ..relational.kernels import grouped_reduce, sorted_reduce
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..storage.column import Column
from ..storage.keys import key_change_flags
from ..types import Schema
from .base import BufferView, ChainStep, Lolepop, OpResult, run_chain
from .hashagg_op import aggregate_schema
from .properties import PhysProps, _missing_columns, unique_groups
from .ranges import ranges_of


class OrdAggTask(NamedTuple):
    name: str
    func: str
    arg: Optional[str]
    fraction: Optional[float] = None
    distinct: bool = False


class OrdAggOp(Lolepop):
    legend = "ORDAGG"
    consumes = ("buffer",)
    produces = "stream"
    chain_min_rows = 1
    splittable = True

    def __init__(
        self,
        input_op: Lolepop,
        key_names: Sequence[str],
        tasks: Sequence[OrdAggTask],
    ):
        super().__init__([input_op])
        self.key_names = list(key_names)
        self.tasks = list(tasks)

    def describe(self) -> str:
        aggs = ", ".join(
            f"{t.func}({'distinct ' if t.distinct else ''}{t.arg or '*'}"
            + (f", {t.fraction}" if t.fraction is not None else "")
            + ")"
            for t in self.tasks
        )
        keys = ",".join(self.key_names)
        return f"[{aggs}] by ({keys})"

    # ------------------------------------------------------------------
    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        source = ins[0] if ins else None
        names = list(self.key_names) + [
            t.arg for t in self.tasks if t.arg is not None
        ]
        problems = _missing_columns(source, names, "ORDAGG")
        if source is None or source.kind != "buffer":
            return problems
        keys = [name.lower() for name in self.key_names]
        if not source.grouping_is_partition_local(keys):
            part = (
                "round-robin"
                if source.partitioned_by is None
                else ",".join(source.partitioned_by)
            )
            problems.append(
                f"ORDAGG groups by ({','.join(keys) or 'ALL'}) but the buffer "
                f"is partitioned on ({part}); key ranges would span partitions"
            )
        prefix = [n.lower() for n in source.ordering_names()[: len(keys)]]
        if sorted(prefix) != sorted(keys):
            have = ",".join(source.ordering_names()) or "(unsorted)"
            problems.append(
                f"ORDAGG requires the buffer sorted on its group keys "
                f"({','.join(keys) or 'none'}) as a prefix, but it is ordered "
                f"on ({have})"
            )
            return problems
        # DISTINCT and WITHIN GROUP tasks need the value order key right
        # after the group-key prefix.
        names_after = [n.lower() for n in source.ordering_names()[len(keys) :]]
        for task in self.tasks:
            if task.arg is None or not (
                task.distinct or task.func in WITHIN_GROUP_FUNCS
            ):
                continue
            if not names_after or names_after[0] != task.arg.lower():
                problems.append(
                    f"ORDAGG task {task.func}({task.arg}) needs the value "
                    f"order key '{task.arg}' right after the group-key "
                    f"prefix, but the buffer is ordered on "
                    f"({','.join(source.ordering_names())})"
                )
        return problems

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        return unique_groups(ins, self.output_schema, self.key_names)

    def order_sensitive(self) -> bool:
        return True

    def output_schema(self, input_schema: Schema) -> Schema:
        return aggregate_schema(input_schema, self.key_names, self.tasks)

    # ------------------------------------------------------------------
    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        return run_chain(ctx, [self], inputs[0], keep=True)[0][0]

    def chain_step(self, ctx: ExecutionContext, view: BufferView) -> ChainStep:
        out_schema = self.output_schema(view.schema)

        def aggregate(partition) -> Batch:
            return self._aggregate_partition(partition.ordered_batch(), out_schema)

        def finish(buffer: TupleBuffer, results: List[Optional[Batch]]) -> List[Batch]:
            if self.span is not None:
                self.note(
                    aggregated_partitions=sum(b is not None for b in results),
                    tasks=len(self.tasks),
                )
            outputs = [b for b in results if b is not None and len(b)]
            if not outputs and not self.key_names:
                # A keyless aggregate over no rows still has its one group
                # (empty partitions run no item).
                return [self._aggregate_partition(Batch.empty(buffer.schema), out_schema)]
            return outputs or [Batch.empty(out_schema)]

        return aggregate, finish

    # ------------------------------------------------------------------
    def _aggregate_partition(self, batch: Batch, out_schema: Schema) -> Batch:
        starts, ends, codes = ranges_of(batch, self.key_names)
        num_groups = len(starts)
        if num_groups == 0:
            return Batch.empty(out_schema)
        columns: List[Column] = [
            batch.column(name).take(starts) for name in self.key_names
        ]
        for task in self.tasks:
            values = batch.column(task.arg) if task.arg is not None else None
            if lookup(task.func).merge is None:
                columns.append(sorted_reduce(
                    task.func, values, starts, codes, num_groups, task.fraction
                ))
            elif task.distinct:
                columns.append(
                    self._distinct_associative(task, batch, codes, num_groups)
                )
            else:
                columns.append(
                    grouped_reduce(task.func, values, codes, num_groups)
                )
        return Batch(out_schema, columns)

    def _distinct_associative(
        self, task: OrdAggTask, batch: Batch, codes: np.ndarray, num_groups: int
    ) -> Column:
        """Duplicate-skipping aggregation on sorted ranges: a row contributes
        only if its (keys, arg) differ from the previous row's."""
        arg = batch.column(task.arg)
        first = key_change_flags(
            [batch.column(name) for name in self.key_names] + [arg]
        )
        keep = first & arg.valid_mask()
        filtered = arg.filter(keep)
        return grouped_reduce(task.func, filtered, codes[keep], num_groups)
