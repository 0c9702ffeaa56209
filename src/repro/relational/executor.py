"""Pipeline executor for the relational (non-statistics) plan fragment.

Scans, filters, projections and joins execute here, morsel-at-a-time, fused
into map pipelines the way a push-based engine inlines consecutive
per-tuple operators into one loop (paper §4.1). Statistics operators
(Aggregate / Window / Sort / Limit) are delegated to the ``stats_handler``
callback, which is how each engine plugs in its own aggregation machinery.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple


from ..errors import ExecutionError
from ..execution.context import ExecutionContext
from ..expr.eval import evaluate
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
from .hash_join import HashJoinTable

StatsHandler = Callable[[LogicalPlan], List[Batch]]


class RelationalExecutor:
    """Executes the relational fragment of a plan into a list of batches."""

    def __init__(
        self,
        catalog: Catalog,
        context: ExecutionContext,
        stats_handler: Optional[StatsHandler] = None,
    ):
        self.catalog = catalog
        self.context = context
        self.stats_handler = stats_handler

    # ------------------------------------------------------------------
    def execute(self, plan: LogicalPlan) -> List[Batch]:
        """Execute ``plan`` fully, returning its output as morsel batches."""
        if isinstance(plan, (Aggregate, Window, Sort, Limit)):
            if self.stats_handler is None:
                raise ExecutionError(
                    f"no statistics handler for {plan.label()}"
                )
            return self.stats_handler(plan)
        if isinstance(plan, UnionAll):
            batches: List[Batch] = []
            for child in plan.children:
                for batch in self.execute(child):
                    if len(batch):
                        batches.append(Batch(plan.schema, batch.columns))
            return batches or [Batch.empty(plan.schema)]
        if isinstance(plan, Join):
            return self._execute_join(plan)
        # Fuse the chain of Scan/Filter/Project above any pipeline breaker.
        source, mapper, label = self._compile_map_chain(plan)
        inputs = self._source_batches(source)
        if mapper is None:
            return inputs
        outputs = self.context.parallel_for(label, inputs, mapper)
        return [b for b in outputs if len(b)] or [Batch.empty(plan.schema)]

    # ------------------------------------------------------------------
    def _source_batches(self, plan: LogicalPlan) -> List[Batch]:
        if isinstance(plan, Scan):
            table = self.catalog.get(plan.table_name)
            batches = table.scan(self.context.config.morsel_size, plan.schema)
            # Scanning is work too; charge a cheap pass over the morsels.
            # ("tablescan" distinguishes base-table scans from the SCAN
            # LOLEPOP's buffer scans in traces.)
            self.context.parallel_for("tablescan", batches, lambda b: None)
            return batches
        return self.execute(plan)

    def _compile_map_chain(
        self, plan: LogicalPlan
    ) -> Tuple[LogicalPlan, Optional[Callable[[Batch], Batch]], str]:
        """Collect consecutive Filter/Project nodes into one per-morsel
        function (pipeline fusion)."""
        stages: List[LogicalPlan] = []
        node = plan
        while isinstance(node, (Filter, Project)):
            stages.append(node)
            node = node.children[0]
        if not stages:
            return node, None, "scan"
        stages.reverse()

        def mapper(batch: Batch) -> Batch:
            for stage in stages:
                if isinstance(stage, Filter):
                    mask_col = evaluate(stage.predicate, batch)
                    mask = mask_col.values.astype(bool) & mask_col.valid_mask()
                    batch = batch.filter(mask)
                else:
                    columns = [
                        evaluate(expr, batch) for _, expr in stage.items
                    ]
                    batch = Batch(stage.schema, columns)
            return batch

        label = "project" if isinstance(stages[-1], Project) else "filter"
        return node, mapper, label

    # ------------------------------------------------------------------
    def _execute_join(self, plan: Join) -> List[Batch]:
        build_batches = self.execute(plan.right)
        build = (
            Batch.concat(build_batches)
            if build_batches
            else Batch.empty(plan.right.schema)
        )
        tables = self.context.parallel_for(
            "join-build", [build], lambda b: HashJoinTable(b, plan.right_keys)
        )
        table = tables[0]
        probe_batches = self.execute(plan.left)
        self.context.next_phase()

        if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
            negate = plan.kind is JoinKind.ANTI

            def probe(batch: Batch) -> Batch:
                mask = table.semi_mask(batch, plan.left_keys)
                return batch.filter(~mask if negate else mask)

        else:
            left_outer = plan.kind is JoinKind.LEFT

            def probe(batch: Batch) -> Batch:
                joined = table.probe(batch, plan.left_keys, left_outer)
                return Batch(plan.schema, joined.columns)

        outputs = self.context.parallel_for("join-probe", probe_batches, probe)
        if self.context.config.collect_trace:
            # Recorded on the submitting thread, after the region barrier. A
            # matched output row is one that is not LEFT padding (its build
            # key is not NULL) resp. not ANTI's complement.
            probe_rows = sum(len(b) for b in probe_batches)
            matched = sum(len(b) for b in outputs)
            if plan.kind is JoinKind.ANTI:
                matched = probe_rows - matched
            elif plan.kind is JoinKind.LEFT:
                key = len(plan.left.schema) + plan.right.schema.index_of(plan.right_keys[0])
                matched -= sum(b.columns[key].null_count() for b in outputs)
            self.context.joins.append(
                {
                    "join": plan.label(),
                    "build_rows": len(build),
                    "keys": table.num_keys,
                    "table": table.form,
                    "shape": "N:1" if table.unique else "N:M",
                    "probe_rows": probe_rows,
                    "matched_rows": matched,
                }
            )
        return [b for b in outputs if len(b)] or [Batch.empty(plan.schema)]
