"""Monolithic relational-operator engine (HyPer stand-in).

Shares the vectorized substrate (scans, joins, expression kernels,
grouped-reduction kernels) with the LOLEPOP engine so single-threaded
constant factors are comparable; what differs is the *architecture*, which
reproduces the behaviors the paper attributes to HyPer:

- **GROUP BY is monolithic**: ordered-set aggregates are rewritten through a
  WINDOW operator that writes the per-group percentile into every row,
  followed by a hash aggregation using ANY (paper §2's rewrite) — an extra
  hash table plus a per-row result column.
- **DISTINCT aggregates** dedupe in one big single-phase table per distinct
  argument and join the partial results afterwards (no morsel-local
  pre-aggregation for the dedup phase).
- **GROUPING SETS** compute every set independently and UNION ALL the
  results — *re-executing the input pipeline per set*, which is what
  duplicates joins in Figure 7.
- **WINDOW operators re-materialize**: every distinct (partition, order)
  pair re-partitions and re-sorts its input; nothing is reused.
- **Per-partition sorting is single-threaded** (work items are not
  splittable), so sorting collapses when the partition key has few distinct
  values (Table 3 queries 7/12/15).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aggregates import (
    WITHIN_GROUP_FUNCS,
    AggregateCall,
    FrameSpec,
    WindowCall,
    ordering_groups,
    within_group_orderings,
)
from ..execution.context import EngineConfig, ExecutionContext
from ..expr.eval import infer_dtype
from ..expr.nodes import ColumnRef
from ..logical import (
    Aggregate,
    Limit,
    LogicalPlan,
    Sort,
    Window,
)
from ..lolepop.engine import QueryResult
from ..lolepop.hashagg_op import HashAggTask, aggregate_batch, two_phase_aggregate
from ..lolepop.partition_op import partition_count, scatter_runs
from ..lolepop.ranges import ranges_of
from ..lolepop.scan_op import _apply_limit
from ..lolepop.window_op import evaluate_window_call
from ..relational.executor import RelationalExecutor
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..storage.column import Column
from ..storage.keys import group_codes
from ..storage.table import Catalog
from ..types import DataType, Field, Schema


class MonolithicEngine:
    name = "monolithic"

    def __init__(self, catalog: Catalog, config: Optional[EngineConfig] = None):
        self.catalog = catalog
        self.config = config or EngineConfig()

    def run(self, plan: LogicalPlan) -> QueryResult:
        runner = _MonolithicRunner(self.catalog, self.config)
        batches = runner.execute_stream(plan)
        batch = Batch.concat(batches) if batches else Batch.empty(plan.schema)
        return QueryResult(
            batch,
            runner.ctx.scheduler.serial_time,
            runner.ctx.scheduler.sim_time,
            runner.ctx.trace,
            [],
        )


class _MonolithicRunner:
    def __init__(self, catalog: Catalog, config: EngineConfig):
        self.ctx = ExecutionContext(config)
        self.config = config
        self._relational = RelationalExecutor(
            catalog, self.ctx, stats_handler=self._handle_statistics
        )

    def execute_stream(self, plan: LogicalPlan) -> List[Batch]:
        return self._relational.execute(plan)

    # ------------------------------------------------------------------
    def _handle_statistics(self, plan: LogicalPlan) -> List[Batch]:
        limit: Optional[int] = None
        offset = 0
        if isinstance(plan, Limit):
            limit, offset = plan.limit, plan.offset
            plan = plan.child
        if isinstance(plan, Sort):
            batches = self._sort(plan, limit, offset)
        elif isinstance(plan, Window):
            batches = self._window(plan)
        elif isinstance(plan, Aggregate):
            batches = self._aggregate(plan)
        else:
            batches = self.execute_stream(plan)
        if limit is not None or offset:
            batches = _apply_limit(batches, limit, offset)
        return batches

    # ------------------------------------------------------------------
    # Materialize + partition + sort (the shared monolithic primitive)
    # ------------------------------------------------------------------
    def _partition_and_sort(
        self,
        batches: List[Batch],
        partition_keys: Tuple[str, ...],
        sort_order: List[Tuple[str, bool]],
        operator: str,
    ) -> TupleBuffer:
        schema = batches[0].schema
        rows = sum(len(batch) for batch in batches)
        num = partition_count(rows, self.config.num_partitions) if partition_keys else 1
        buffer = TupleBuffer(schema, num, partition_keys)
        scatter_runs(self.ctx, operator, buffer, batches)
        self.ctx.next_phase()
        key_names = [name for name, _ in sort_order]
        descending = [desc for _, desc in sort_order]
        # HyPer sorts each partition on a single thread: a one-step region
        # is never split.
        self.ctx.parallel_for(
            f"{operator}-sort",
            [p for p in buffer.partitions if p.num_rows > 1],
            lambda p: p.sort_inplace(key_names, descending),
        )
        buffer.set_ordering(tuple(sort_order))
        return buffer

    # ------------------------------------------------------------------
    # ORDER BY
    # ------------------------------------------------------------------
    def _sort(
        self, plan: Sort, limit: Optional[int], offset: int
    ) -> List[Batch]:
        batches = self.execute_stream(plan.child)
        buffer = self._partition_and_sort(batches, (), plan.keys, "sort")
        self.ctx.next_phase()
        # An unkeyed buffer is one partition: its sorted run is the answer.
        batch = buffer.partitions[0].ordered_batch()
        if limit is not None:
            batch = batch.slice(0, limit + offset)
        return [batch]

    # ------------------------------------------------------------------
    # WINDOW
    # ------------------------------------------------------------------
    def _window(self, plan: Window) -> List[Batch]:
        batches = self.execute_stream(plan.child)
        groups = ordering_groups(plan.calls)
        for group in groups:
            batches = self._window_one_group(batches, group)
        # Restore the plan's column order.
        names = plan.schema.names()
        return [b.select(names) for b in batches]

    def _window_one_group(
        self, batches: List[Batch], calls: List[WindowCall]
    ) -> List[Batch]:
        """One monolithic WINDOW operator: materialize, partition, sort,
        evaluate — no reuse of earlier materializations."""
        part_names = [ref.name for ref in calls[0].partition_by]
        order_keys = [(ref.name, desc) for ref, desc in calls[0].order_by]
        sort_order = [(name, False) for name in part_names] + order_keys
        buffer = self._partition_and_sort(
            batches, tuple(part_names), sort_order, "window"
        )
        self.ctx.next_phase()
        schema = buffer.schema
        fields = []
        for call in calls:
            arg_types = [infer_dtype(a, schema) for a in call.args]
            fields.append((call.name, call.spec.result_type(arg_types)))
        order_names = [name for name, _ in order_keys]

        def evaluate_partition(partition) -> Batch:
            batch = partition.ordered_batch()
            starts, ends, codes = ranges_of(batch, part_names)
            columns = list(batch.columns)
            out_fields = list(batch.schema.fields)
            for call, (name, dtype) in zip(calls, fields):
                columns.append(
                    evaluate_window_call(
                        call, dtype, batch, starts, ends, codes,
                        part_names, order_names,
                    )
                )
                out_fields.append(Field(name, dtype))
            return Batch(Schema(out_fields), columns)

        outputs = self.ctx.parallel_for(
            "window",
            [p for p in buffer.partitions if p.num_rows],
            evaluate_partition,
        )
        if not outputs:
            out_schema = Schema(
                list(schema.fields) + [Field(n, d) for n, d in fields]
            )
            return [Batch.empty(out_schema)]
        return outputs

    # ------------------------------------------------------------------
    # GROUP BY
    # ------------------------------------------------------------------
    def _aggregate(self, plan: Aggregate) -> List[Batch]:
        if plan.grouping_sets is None:
            batches = self.execute_stream(plan.child)
            result = self._aggregate_one_set(
                batches, plan.group_names, plan.aggregates
            )
            return [_conform(b, plan.schema) for b in result]
        # UNION ALL strategy: every grouping set re-executes the input
        # pipeline and aggregates independently (HyPer, paper §2/§5.2).
        outputs: List[Batch] = []
        for grouping_set in plan.grouping_sets:
            batches = self.execute_stream(plan.child)
            self.ctx.next_phase()
            result = self._aggregate_one_set(
                batches, list(grouping_set), plan.aggregates
            )
            grouping_id = plan.grouping_id_of(grouping_set)
            for batch in result:
                outputs.append(
                    _null_extend(
                        batch, plan, grouping_set, grouping_id
                    )
                )
        return outputs or [Batch.empty(plan.schema)]

    def _aggregate_one_set(
        self,
        batches: List[Batch],
        keys: List[str],
        calls: List[AggregateCall],
    ) -> List[Batch]:
        ordered = [c for c in calls if c.func in WITHIN_GROUP_FUNCS]
        distinct = [c for c in calls if c.distinct and c not in ordered]
        plain = [c for c in calls if c not in ordered and c not in distinct]

        # Ordered-set aggregates run through WINDOW + ANY (paper §2): one
        # window pass per distinct value ordering, each re-materializing.
        any_tasks: List[HashAggTask] = []
        if ordered:
            for (arg, desc), group in within_group_orderings(ordered):
                window_calls = [
                    WindowCall(
                        name=c.name,
                        func=c.func,
                        args=list(c.args),
                        partition_by=[ColumnRef(k) for k in keys],
                        order_by=[(ColumnRef(arg), desc)],
                        frame=FrameSpec.whole_partition(),
                        fraction=c.fraction,
                        within_descending=desc,
                    )
                    for c in group
                ]
                batches = self._window_one_group(batches, window_calls)
                self.ctx.next_phase()
                any_tasks.extend(
                    HashAggTask(c.name, "any", c.name) for c in group
                )

        tasks = [HashAggTask.of(c) for c in plain] + any_tasks
        units: List[List[Batch]] = []
        if tasks or not distinct:
            units.append(
                two_phase_aggregate(
                    self.ctx, batches, keys, tasks,
                    self.config.num_partitions, operator="groupby",
                )
            )
            self.ctx.next_phase()

        # DISTINCT: single-phase dedup table per argument, then aggregate,
        # then join the unique result groups.
        by_arg: Dict[str, List[AggregateCall]] = {}
        for call in distinct:
            by_arg.setdefault(call.args[0].name, []).append(call)
        for arg, group in by_arg.items():
            whole = Batch.concat(batches)
            dedup_keys = keys + ([arg] if arg not in keys else [])

            def dedup(batch: Batch) -> Batch:
                columns = [batch.column(k) for k in dedup_keys]
                _, representatives, num = group_codes(columns)
                return batch.take(representatives[:num])

            deduped = self.ctx.parallel_for("groupby", [whole], dedup)[0]
            self.ctx.next_phase()
            agg_tasks = [HashAggTask(c.name, c.func, arg) for c in group]
            merged = self.ctx.parallel_for(
                "groupby",
                [deduped],
                lambda b: aggregate_batch(b, keys, agg_tasks),
            )
            units.append(merged)
            self.ctx.next_phase()
        if len(units) == 1:
            return units[0]
        return self._join_groups(units, keys)

    def _join_groups(
        self, units: List[List[Batch]], keys: List[str]
    ) -> List[Batch]:
        """Hash-join unique result groups of the internal aggregation DAG."""
        batches = [Batch.concat(u) for u in units]
        key_columns = [
            Column.concat([b.column(name) for b in batches]) for name in keys
        ]

        def join(_) -> Batch:
            if keys:
                codes, representatives, num = group_codes(key_columns)
            else:
                total = sum(len(b) for b in batches)
                codes = np.zeros(total, dtype=np.int64)
                representatives = np.zeros(1, dtype=np.int64)
                num = 1 if total else 0
            offsets = np.cumsum([0] + [len(b) for b in batches])
            fields = []
            columns = []
            for i, name in enumerate(keys):
                fields.append(Field(name, key_columns[i].dtype))
                columns.append(key_columns[i].take(representatives[:num]))
            for index, batch in enumerate(batches):
                local = codes[offsets[index] : offsets[index + 1]]
                for field, column in zip(batch.schema, batch.columns):
                    if field.name in keys:
                        continue
                    fields.append(Field(field.name, column.dtype))
                    columns.append(column.scatter(local, num))
            return Batch(Schema(fields), columns)

        result = self.ctx.parallel_for("groupby-join", [None], join)
        self.ctx.next_phase()
        return result


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _conform(batch: Batch, schema: Schema) -> Batch:
    columns = [batch.column(f.name) for f in schema]
    return Batch(schema, columns)


def _null_extend(
    batch: Batch, plan: Aggregate, grouping_set, grouping_id: int
) -> Batch:
    """Pad a per-set result to the full grouping-set schema (UNION ALL)."""
    n = len(batch)
    columns: List[Column] = []
    for field in plan.schema:
        if field.name == "grouping_id":
            columns.append(
                Column(
                    DataType.INT64, np.full(n, grouping_id, dtype=np.int64)
                )
            )
        elif field.name in plan.group_names and field.name not in grouping_set:
            columns.append(Column.nulls(field.dtype, n))
        else:
            columns.append(batch.column(field.name))
    return Batch(plan.schema, columns)
