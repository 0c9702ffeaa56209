"""Logical statistics operators → LOLEPOP DAG (the algorithm of Figure 2).

Entry point :func:`translate_statistics` accepts the topmost statistics node
of a plan region (Aggregate / Window / Sort / Limit — the binder guarantees
the normalized shapes documented in :mod:`repro.logical`) and produces an
executable :class:`~repro.lolepop.base.Dag` whose sink emits the node's
output schema as a stream.

The five steps of the paper's algorithm map to this module as follows:

- **A — add combine operators**: one COMBINE per group-key set; grouping
  sets use the union-mode COMBINE carrying ``grouping_id``.
- **B — compute aggregates**: grouping sets are expanded (longest set
  first, subsets *reaggregated* from its output when possible); aggregates
  are split into ordered-set units (ORDAGG), distinct units
  (HASHAGG∘HASHAGG, or — when the estimator prices it cheaper — a re-sort
  of the ordered-set chain's buffer and a deduplicating ORDAGG, §3.3), and
  plain associative units (HASHAGG, or riding along in an ORDAGG when
  sorting happens anyway).
- **C — propagate buffers**: PARTITION/SORT/SCAN are inserted around the
  compute operators; consecutive ordered-set units share one buffer and
  re-sort it in place (anti-dependency ``after`` edges keep the evaluation
  order correct — the paper's "producer order" selection).
- **D — connect DAG**: the relational pipeline below becomes a SOURCE
  node; a SCAN normalizing column order becomes the sink.
- **E — optimize DAG**: :mod:`repro.lolepop.optimizer` removes redundant
  COMBINEs; sort elision and strategy selection are applied during
  construction and at runtime (SORT no-ops when the buffer ordering already
  has the required prefix), all guarded by
  :class:`~repro.execution.EngineConfig` flags.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..aggregates import (
    WITHIN_GROUP_FUNCS,
    AggregateCall,
    ordering_groups,
    within_group_orderings,
)
from ..errors import NotSupportedError, PlanError
from ..execution.context import EngineConfig
from ..expr.nodes import ColumnRef, Expr
from ..logical import (
    Aggregate,
    Limit,
    LogicalPlan,
    Project,
    Sort,
    Window,
)
from ..storage.batch import Batch
from ..types import Schema
from .base import Dag, Lolepop, SourceOp
from .combine_op import CombineOp
from .hashagg_op import HashAggOp, HashAggTask
from .merge_op import MergeOp
from .ordagg_op import OrdAggOp, OrdAggTask
from .partition_op import PartitionOp
from .scan_op import ScanOp
from .sort_op import SortOp
from .window_op import WindowOp
from . import optimizer

SourceExecutor = Callable[[LogicalPlan], List[Batch]]

#: (order key name, desc) pairs grouped with their ordered-set calls.
_Ordering = Tuple[Tuple[str, bool], List[AggregateCall]]


def translate_statistics(
    plan: LogicalPlan,
    source_executor: SourceExecutor,
    config: EngineConfig,
    estimator,
) -> Dag:
    """Translate one statistics region rooted at ``plan`` into a DAG.

    ``estimator`` is the
    :class:`~repro.logical.cardinality.CardinalityEstimator` the statement
    runs with: it prices paper §3.3's DISTINCT lowering (re-sort the chain
    buffer and dedup in ORDAGG, or two hash aggregations), so every caller
    that must show, run or verify the same DAG passes the same one."""
    translator = _Translator(source_executor, config, estimator)
    dag = translator.translate(plan)
    dag.region_plan = plan
    optimizer.optimize(dag, config)
    if config.verify_plans != "off":
        from .verify import verify_dag

        verify_dag(dag, context="translate")
    return dag


class _Translator:
    def __init__(
        self,
        source_executor: SourceExecutor,
        config: EngineConfig,
        estimator,
    ):
        self.source = source_executor
        self.config = config
        self.estimator = estimator
        self.dag = Dag()

    # ==================================================================
    def translate(self, plan: LogicalPlan) -> Dag:
        limit: Optional[int] = None
        offset = 0
        if isinstance(plan, Limit):
            limit, offset = plan.limit, plan.offset
            plan = plan.child
        if isinstance(plan, Sort):
            sink = self._translate_order_by(plan, limit, offset)
        elif isinstance(plan, Aggregate):
            sink = self._translate_aggregate(plan, limit, offset)
        elif isinstance(plan, Window):
            sink = self._translate_window_region(plan, limit, offset)
        else:
            source = self._source_op(plan)
            sink = self.dag.add(ScanOp(source, limit=limit, offset=offset))
        self.dag.set_sink(sink)
        return self.dag

    # ------------------------------------------------------------------
    def _source_op(self, plan: LogicalPlan, label: str = "pipeline") -> Lolepop:
        return self.dag.add(
            SourceOp(lambda: self.source(plan), label=label, plan=plan)
        )

    @staticmethod
    def _select_items(schema: Schema) -> List[Tuple[str, Expr]]:
        return [(f.name, ColumnRef(f.name)) for f in schema]

    # ------------------------------------------------------------------
    def _partition_with_reuse(
        self,
        upstream_fn: Callable[[], Lolepop],
        keys: Sequence[str],
        num_partitions: int,
        source_plan: Optional[LogicalPlan],
        required_order=None,
    ) -> Lolepop:
        """A PARTITION over ``upstream_fn()`` — or, when the materialization
        manager holds a fresh byte-identical entry for this site, a
        :class:`~repro.lolepop.reuse_op.CachedBufferOp` substitute.

        ``upstream_fn`` is lazy so a substitution never leaves an orphan
        SOURCE in the DAG (``verify_dag`` flags unreachable nodes). On the
        no-entry path the spec is attached to the PARTITION as
        ``reuse_capture`` so the operator (and a downstream SORT) can offer
        the materialized buffer back after executing."""
        manager = getattr(self.config, "reuse", None)
        spec = None
        if manager is not None and source_plan is not None:
            spec = manager.capture_spec(
                source_plan, keys, num_partitions, self.config
            )
        if spec is not None:
            ordering = manager.lookup_buffer(spec, required_order=required_order)
            if ordering is not None:
                from .reuse_op import CachedBufferOp

                self.dag.record_rewrite(
                    f"reuse: cached buffer source [{spec.describe()}]",
                    pass_name="reuse",
                    detail=spec.describe(),
                    nodes=("CACHEDBUF",),
                )
                return self.dag.add(
                    CachedBufferOp(
                        spec,
                        ordering,
                        source_plan,
                        lambda: self.source(source_plan),
                        keys,
                        num_partitions,
                    )
                )
        partition = self.dag.add(
            PartitionOp(upstream_fn(), tuple(keys), num_partitions)
        )
        if spec is not None:
            partition.reuse_capture = spec
        return partition

    # ==================================================================
    # ORDER BY / LIMIT regions
    # ==================================================================
    def _translate_order_by(
        self, plan: Sort, limit: Optional[int], offset: int
    ) -> Lolepop:
        keys = plan.keys

        # Buffer-reuse path (Figure 3, plan 3): ORDER BY directly over a
        # window region's materialized buffer, re-sorted in place.
        reuse = self._try_order_by_over_window(plan, keys, limit, offset)
        if reuse is not None:
            return reuse

        partition = self._partition_with_reuse(
            lambda: self._source_op(plan.child),
            (),
            self.config.num_partitions,
            plan.child,
            required_order=keys,
        )
        return self._sorted_result(
            partition, keys, self._select_items(plan.schema), plan.schema, limit, offset
        )

    def _sorted_result(
        self,
        buffer_op: Lolepop,
        keys,
        project: List[Tuple[str, Expr]],
        schema: Schema,
        limit: Optional[int],
        offset: int,
    ) -> Lolepop:
        """The ORDER BY tail over a buffer: SORT → MERGE (truncating every
        run at ``limit + offset``) → SCAN projecting ``project``."""
        limit_hint = (limit + offset) if limit is not None else None
        sort = self.dag.add(SortOp(buffer_op, keys))
        merge = self.dag.add(MergeOp(sort, keys, limit_hint=limit_hint))
        return self.dag.add(
            ScanOp(
                merge,
                project=project,
                project_schema=schema,
                limit=limit,
                offset=offset,
            )
        )

    def _try_order_by_over_window(
        self, plan: Sort, keys, limit, offset
    ) -> Optional[Lolepop]:
        if not self.config.reuse_buffers:
            return None
        node = plan.child
        mapping: Dict[str, str] = {f.name: f.name for f in node.schema}
        items: Optional[List[Tuple[str, Expr]]] = None
        if isinstance(node, Project):
            items = node.items
            mapping = {
                name: expr.name
                for name, expr in node.items
                if isinstance(expr, ColumnRef)
            }
            node = node.child
        if not isinstance(node, Window):
            return None
        if any(name not in mapping for name, _ in keys):
            return None
        window_sink = self._translate_window_chain(node)
        self.dag.record_rewrite(
            "buffer-reuse: order-by re-sorts window buffer",
            pass_name="buffer-reuse",
            detail="order-by re-sorts window buffer",
            nodes=("SORT", "WINDOW"),
        )
        buffer_keys = [(mapping[name], desc) for name, desc in keys]
        project = items if items is not None else self._select_items(plan.schema)
        return self._sorted_result(
            window_sink, buffer_keys, project, plan.schema, limit, offset
        )

    # ==================================================================
    # Window regions
    # ==================================================================
    def _translate_window_region(
        self, plan: Window, limit: Optional[int], offset: int
    ) -> Lolepop:
        sink = self._translate_window_chain(plan)
        return self.dag.add(
            ScanOp(
                sink,
                project=self._select_items(plan.schema),
                project_schema=plan.schema,
                limit=limit,
                offset=offset,
            )
        )

    def _translate_window_chain(
        self,
        plan: Window,
        post_items: Optional[List[Tuple[str, Expr]]] = None,
    ) -> Lolepop:
        """PARTITION → SORT → WINDOW (→ SORT → WINDOW ...), grouping calls by
        shared (partition, order) and reusing one buffer across ordering
        groups whenever the partitioning stays compatible (queries 13/14)."""
        groups = ordering_groups(plan.calls)
        source = self._source_op(plan.child)
        current: Optional[Lolepop] = None
        current_partition_keys: Optional[Tuple[str, ...]] = None
        last_window: Optional[Lolepop] = None
        for index, group in enumerate(groups):
            part_keys = tuple(ref.name for ref in group[0].partition_by)
            order_keys = [(ref.name, desc) for ref, desc in group[0].order_by]
            sort_order = [(k, False) for k in part_keys] + order_keys
            compatible = (
                current is not None
                and self.config.reuse_buffers
                and current_partition_keys is not None
                and set(current_partition_keys) <= set(part_keys)
                and len(current_partition_keys) > 0
            )
            if not compatible:
                upstream = (
                    source if current is None else self.dag.add(ScanOp(current))
                )
                num_partitions = self.config.num_partitions if part_keys else 1
                current = self.dag.add(
                    PartitionOp(upstream, part_keys, num_partitions)
                )
                current_partition_keys = part_keys
            else:
                self.dag.record_rewrite(
                    "buffer-reuse: window ordering group shares buffer",
                    pass_name="buffer-reuse",
                    detail="window ordering group shares buffer",
                    nodes=("WINDOW",),
                )
            sort = self.dag.add(SortOp(current, sort_order))
            if last_window is not None:
                sort.run_after(last_window)
            is_last = index == len(groups) - 1
            window = self.dag.add(
                WindowOp(sort, group, post_items=post_items if is_last else None)
            )
            current = window
            last_window = window
        if current is None:
            raise PlanError("window node without calls")
        return current

    # ==================================================================
    # Aggregate regions
    # ==================================================================
    def _translate_aggregate(
        self, plan: Aggregate, limit: Optional[int], offset: int
    ) -> Lolepop:
        view_sink = self._try_view_substitution(plan, limit, offset)
        if view_sink is not None:
            return view_sink
        group_names = plan.group_names
        input_ctx = self._aggregate_input(plan)

        if plan.grouping_sets is not None:
            units, union_keys, grouping_ids = self._grouping_set_units(
                plan, input_ctx
            )
            combine = self.dag.add(
                CombineOp(
                    units,
                    key_names=group_names,
                    mode="union",
                    union_keys=union_keys,
                    grouping_ids=grouping_ids,
                    union_key_schema=plan.schema.select(group_names),
                )
            )
        else:
            units = self._build_units(
                group_names, plan.aggregates, input_ctx, source_plan=plan.child
            )
            combine = self.dag.add(
                CombineOp(units, key_names=group_names, mode="join")
            )
        return self.dag.add(
            ScanOp(
                combine,
                project=self._select_items(plan.schema),
                project_schema=plan.schema,
                limit=limit,
                offset=offset,
            )
        )

    def _try_view_substitution(
        self, plan: Aggregate, limit: Optional[int], offset: int
    ) -> Optional[Lolepop]:
        """Serve the whole aggregation region from an incrementally
        maintained view when the manager holds (or decides to build) a
        covering one. LIMIT/OFFSET regions are declined: with them the
        emitted row *set* depends on the producing operator's row order,
        which a view substitution does not preserve."""
        manager = getattr(self.config, "reuse", None)
        if manager is None or limit is not None or offset:
            return None
        if not manager.view_source(plan):
            return None
        from .reuse_op import ViewSourceOp

        source = self.dag.add(ViewSourceOp(plan))
        self.dag.record_rewrite(
            "reuse: aggregate served from materialized view",
            pass_name="reuse",
            detail="aggregate served from materialized view",
            nodes=("VIEWSOURCE",),
        )
        return self.dag.add(
            ScanOp(
                source,
                project=self._select_items(plan.schema),
                project_schema=plan.schema,
                limit=limit,
                offset=offset,
            )
        )

    def _aggregate_input(self, plan: Aggregate) -> "_AggInput":
        """Locate an optional Window stage below the aggregation (nested
        aggregates): the binder emits Aggregate → Project → Window there.
        The projection between window and aggregation is written into the
        window's buffer so later SORT/ORDAGG can use the computed columns
        as keys (the MAD plan)."""
        child = plan.child
        if isinstance(child, Project) and isinstance(child.child, Window):
            pre_items = [
                (name, expr)
                for name, expr in child.items
                if not (isinstance(expr, ColumnRef) and expr.name == name)
            ]
            window_node = child.child
            buffer_op = self._translate_window_chain(
                window_node, post_items=pre_items
            )
            partition_keys = tuple(
                ref.name for ref in window_node.calls[0].partition_by
            )
            return _AggInput(self, buffer_op, partition_keys)
        return _AggInput(self, None, None, source_plan=plan.child)

    # ------------------------------------------------------------------
    # Step B: units for one group-key set
    # ------------------------------------------------------------------
    def _build_units(
        self,
        group_names: List[str],
        calls: List[AggregateCall],
        input_ctx: "_AggInput",
        source_plan: LogicalPlan,
    ) -> List[Lolepop]:
        ordered = [c for c in calls if c.func in WITHIN_GROUP_FUNCS]
        distinct = [c for c in calls if c.distinct and c not in ordered]
        plain = [c for c in calls if c not in ordered and c not in distinct]

        units: List[Lolepop] = []
        orderings = within_group_orderings(ordered)
        window_compatible = input_ctx.buffer_usable_for(group_names)
        consumed_distinct: List[AggregateCall] = []
        chain_buffer: Optional[Lolepop] = None
        chain_last: Optional[Lolepop] = None

        if orderings or (window_compatible and (plain or not distinct)):
            if (
                self.config.reuse_buffers
                or len(orderings) <= 1
                or input_ctx.buffer_op is not None
            ):
                chain_buffer = input_ctx.materialize(group_names)
                chain_units, chain_last = self._ordered_chain(
                    chain_buffer,
                    group_names, orderings, plain, distinct, consumed_distinct,
                )
                units.extend(chain_units)
            else:
                # Ablation: no buffer reuse — every ordering materializes
                # and partitions its own copy of the input.
                for index, ordering in enumerate(orderings):
                    chain_units, _ = self._ordered_chain(
                        input_ctx.materialize(group_names),
                        group_names, [ordering],
                        plain if index == 0 else [], [], [],
                    )
                    units.extend(chain_units)
        elif plain:
            units.append(self._hash_unit(group_names, plain, input_ctx))

        remaining = [c for c in distinct if c not in consumed_distinct]
        if remaining and chain_buffer is not None and self.config.reuse_buffers:
            remaining, chain_last = self._cost_based_distinct(
                remaining, group_names, chain_buffer, chain_last,
                source_plan, units,
            )
        units.extend(self._distinct_units(group_names, remaining, input_ctx))
        if not units:
            units.append(self._hash_unit(group_names, [], input_ctx))
        return units

    def _cost_based_distinct(
        self,
        remaining: List[AggregateCall],
        group_names: List[str],
        chain_buffer: Lolepop,
        chain_last: Optional[Lolepop],
        source_plan: LogicalPlan,
        units: List[Lolepop],
    ) -> Tuple[List[AggregateCall], Optional[Lolepop]]:
        """Paper §3.3's priced trade: a DISTINCT aggregate over an existing
        materialized buffer can re-sort the key ranges and dedup in ORDAGG
        instead of building two hash tables — when the cost model says the
        re-sort is cheaper."""
        from ..costmodel import choose_distinct_strategy

        still_hash: List[AggregateCall] = []
        for call in remaining:
            arg = call.args[0].name
            try:
                input_rows = self.estimator.rows(source_plan)
                distinct_groups = self.estimator.group_count(
                    source_plan, group_names + [arg]
                )
                final_groups = self.estimator.group_count(
                    source_plan, group_names
                )
            except Exception:
                still_hash.append(call)
                continue
            decision = choose_distinct_strategy(
                input_rows, distinct_groups, final_groups
            )
            if not decision.use_sort:
                still_hash.append(call)
                continue
            # The decision's own prices, the only ones the engine compares.
            detail = (
                f"{call.func}(DISTINCT {arg}): sort {decision.sort_cost:.3g}"
                f" < hash {decision.hash_cost:.3g}"
            )
            self.dag.record_rewrite(
                f"cost_based_distinct: {detail}",
                pass_name="cost_based_distinct",
                detail=detail,
                nodes=("SORT", "ORDAGG"),
            )
            sort_order = [(name, False) for name in group_names] + [(arg, False)]
            sort = self.dag.add(SortOp(chain_buffer, sort_order))
            if chain_last is not None:
                sort.run_after(chain_last)
            ordagg = self.dag.add(
                OrdAggOp(
                    sort, group_names,
                    [OrdAggTask(call.name, call.func, arg, distinct=True)],
                )
            )
            units.append(ordagg)
            chain_last = ordagg
        return still_hash, chain_last

    def _ordered_chain(
        self,
        buffer_op: Lolepop,
        group_names: List[str],
        orderings: List[_Ordering],
        plain: List[AggregateCall],
        distinct: List[AggregateCall],
        consumed_distinct: List[AggregateCall],
        previous: Optional[Lolepop] = None,
    ) -> Tuple[List[Lolepop], Optional[Lolepop]]:
        """SORT → ORDAGG (→ SORT → ORDAGG ...) over one shared buffer.

        Plain associative calls ride along in the first ORDAGG; DISTINCT
        aggregates whose argument matches a sort's value order fold in as
        duplicate-sensitive tasks. Returns the units and the last operator
        (for anti-dependency chaining by the caller)."""
        sort_specs: List[Tuple[Optional[Tuple[str, bool]], List[AggregateCall]]]
        sort_specs = list(orderings) if orderings else [(None, [])]
        if len(sort_specs) > 1:
            self.dag.record_rewrite(
                f"buffer-reuse: {len(sort_specs)} ordered-set sorts share buffer",
                pass_name="buffer-reuse",
                detail=f"{len(sort_specs)} ordered-set sorts share buffer",
                nodes=("SORT",) * len(sort_specs),
            )
        units: List[Lolepop] = []
        for index, (order_key, calls_here) in enumerate(sort_specs):
            sort_order = [(name, False) for name in group_names]
            if order_key is not None:
                sort_order.append(order_key)
            sort = self.dag.add(SortOp(buffer_op, sort_order))
            if previous is not None:
                sort.run_after(previous)
            tasks = [
                OrdAggTask(c.name, c.func, c.args[0].name, c.fraction)
                for c in calls_here
            ]
            if index == 0:
                tasks.extend(
                    OrdAggTask(c.name, c.func, c.args[0].name if c.args else None)
                    for c in plain
                )
            if order_key is not None and self.config.reuse_buffers:
                for call in distinct:
                    if call in consumed_distinct:
                        continue
                    folds = (
                        call.args
                        and call.args[0].name == order_key[0]
                        and not order_key[1]
                    )
                    if folds:
                        tasks.append(
                            OrdAggTask(
                                call.name, call.func, call.args[0].name,
                                distinct=True,
                            )
                        )
                        consumed_distinct.append(call)
            ordagg = self.dag.add(OrdAggOp(sort, group_names, tasks))
            units.append(ordagg)
            previous = ordagg
        return units, previous

    def _hash_unit(
        self,
        group_names: List[str],
        calls: List[AggregateCall],
        input_ctx: "_AggInput",
    ) -> Lolepop:
        tasks = [HashAggTask.of(c) for c in calls]
        return self.dag.add(
            HashAggOp(
                input_ctx.stream(), group_names, tasks,
                num_partitions=self.config.num_partitions,
            )
        )

    def _distinct_units(
        self,
        group_names: List[str],
        distinct: List[AggregateCall],
        input_ctx: "_AggInput",
    ) -> List[Lolepop]:
        """HASHAGG(keys+arg) → HASHAGG(keys, agg) per distinct argument (§2);
        distinct aggregates over the same argument share the pre-grouping."""
        by_arg: Dict[str, List[AggregateCall]] = {}
        order: List[str] = []
        for call in distinct:
            if not call.args:
                raise NotSupportedError("count(DISTINCT *) is not valid")
            arg = call.args[0].name
            if arg not in by_arg:
                by_arg[arg] = []
                order.append(arg)
            by_arg[arg].append(call)
        units: List[Lolepop] = []
        for arg in order:
            pre_keys = group_names + ([arg] if arg not in group_names else [])
            pre = self.dag.add(
                HashAggOp(
                    input_ctx.stream(), pre_keys, [],
                    num_partitions=self.config.num_partitions,
                )
            )
            tasks = [HashAggTask(c.name, c.func, arg) for c in by_arg[arg]]
            units.append(
                self.dag.add(
                    HashAggOp(
                        pre, group_names, tasks,
                        num_partitions=self.config.num_partitions,
                    )
                )
            )
        return units

    # ------------------------------------------------------------------
    # Grouping sets
    # ------------------------------------------------------------------
    def _grouping_set_units(
        self, plan: Aggregate, input_ctx: "_AggInput"
    ) -> Tuple[List[Lolepop], List[Tuple[str, ...]], List[int]]:
        calls = plan.aggregates
        if any(c.distinct for c in calls):
            raise NotSupportedError(
                "DISTINCT aggregates with GROUPING SETS are not supported"
            )
        sets = sorted(plan.grouping_sets, key=len, reverse=True)
        if any(c.spec.merge is None for c in calls):
            return self._ordered_grouping_sets(plan, sets, calls, input_ctx)
        return self._associative_grouping_sets(plan, sets, calls, input_ctx)

    def _ordered_grouping_sets(
        self, plan, sets, calls, input_ctx
    ) -> Tuple[List[Lolepop], List[Tuple[str, ...]], List[int]]:
        """Queries 10-12: one buffer partitioned by the first key of the
        longest set, reordered in place per set (decreasing key lengths);
        sets not containing the partition key get their own chain."""
        ordered = [c for c in calls if c.func in WITHIN_GROUP_FUNCS]
        plain = [c for c in calls if c not in ordered]
        orderings = within_group_orderings(ordered)
        primary = sets[0][0] if sets[0] else None
        shared_buffer: Optional[Lolepop] = None
        previous: Optional[Lolepop] = None
        units: List[Lolepop] = []
        union_keys: List[Tuple[str, ...]] = []
        grouping_ids: List[int] = []
        for gs in sets:
            keys = list(gs)
            reuse = (
                primary is not None
                and primary in gs
                and self.config.reuse_buffers
            )
            if reuse:
                if shared_buffer is None:
                    shared_buffer = self._partition_with_reuse(
                        input_ctx.stream, (primary,),
                        self.config.num_partitions, input_ctx.source_plan,
                    )
                    previous = None
                else:
                    self.dag.record_rewrite(
                        "buffer-reuse: grouping set re-sorts shared buffer",
                        pass_name="buffer-reuse",
                        detail="grouping set re-sorts shared buffer",
                        nodes=("SORT",),
                    )
                buffer_op = shared_buffer
                chain_units, previous = self._ordered_chain(
                    buffer_op, keys, orderings, plain, [], [], previous
                )
            else:
                part_keys = tuple(gs[:1])
                buffer_op = self._partition_with_reuse(
                    input_ctx.stream, part_keys,
                    self.config.num_partitions if part_keys else 1,
                    input_ctx.source_plan,
                )
                chain_units, _ = self._ordered_chain(
                    buffer_op, keys, orderings, plain, [], []
                )
            units.append(self._join_units(chain_units, keys))
            union_keys.append(gs)
            grouping_ids.append(plan.grouping_id_of(gs))
        return units, union_keys, grouping_ids

    def _associative_grouping_sets(
        self, plan, sets, calls, input_ctx
    ) -> Tuple[List[Lolepop], List[Tuple[str, ...]], List[int]]:
        """Compute the longest set first, then *reaggregate* every subset
        from its output — the paper's alternative to UNION ALL duplication
        (query 8: group (k,n) first, re-group by (k) afterwards)."""
        first_set = sets[0]
        base_tasks = [HashAggTask.of(c) for c in calls]
        first_unit = self.dag.add(
            HashAggOp(
                input_ctx.stream(), list(first_set), base_tasks,
                num_partitions=self.config.num_partitions,
            )
        )
        units = [first_unit]
        union_keys = [first_set]
        grouping_ids = [plan.grouping_id_of(first_set)]
        for gs in sets[1:]:
            reaggregable = (
                self.config.reaggregate_grouping_sets
                and set(gs) <= set(first_set)
            )
            if reaggregable:
                merge_tasks = [
                    HashAggTask(c.name, c.spec.merge, c.name) for c in calls
                ]
                unit = self.dag.add(
                    HashAggOp(
                        first_unit, list(gs), merge_tasks,
                        num_partitions=self.config.num_partitions,
                    )
                )
            else:
                unit = self.dag.add(
                    HashAggOp(
                        input_ctx.stream(), list(gs), base_tasks,
                        num_partitions=self.config.num_partitions,
                    )
                )
            units.append(unit)
            union_keys.append(gs)
            grouping_ids.append(plan.grouping_id_of(gs))
        return units, union_keys, grouping_ids

    def _join_units(self, units: List[Lolepop], keys: List[str]) -> Lolepop:
        if len(units) == 1:
            return units[0]
        return self.dag.add(CombineOp(units, key_names=keys, mode="join"))


class _AggInput:
    """Where an aggregation unit draws its input: a window region's
    materialized buffer, or the relational source stream.

    The source SOURCE node is created lazily: when the cross-query
    materialization manager substitutes a cached buffer for the whole
    SOURCE → PARTITION subtree, an eagerly created SOURCE would sit in
    the DAG unreachable (a verifier diagnostic)."""

    def __init__(
        self,
        translator: _Translator,
        buffer_op: Optional[Lolepop],
        buffer_partition_keys: Optional[Tuple[str, ...]],
        source_plan: Optional[LogicalPlan] = None,
    ):
        self._translator = translator
        self.buffer_op = buffer_op
        self.buffer_partition_keys = buffer_partition_keys
        self.source_plan = source_plan
        self._source: Optional[Lolepop] = None
        self._scan: Optional[Lolepop] = None

    def buffer_usable_for(self, group_names: List[str]) -> bool:
        """True when the window buffer's partitioning is a subset of the
        group keys, so key ranges stay partition-local (paper §3.3)."""
        if self.buffer_op is None or self.buffer_partition_keys is None:
            return False
        if not self._translator.config.reuse_buffers:
            return False
        return set(self.buffer_partition_keys) <= set(group_names) or (
            not group_names and not self.buffer_partition_keys
        )

    def stream(self) -> Lolepop:
        if self.buffer_op is not None:
            if self._scan is None:
                self._scan = self._translator.dag.add(ScanOp(self.buffer_op))
            return self._scan
        if self._source is None:
            self._source = self._translator._source_op(self.source_plan)
        return self._source

    def materialize(self, group_names: List[str]) -> Lolepop:
        """A buffer usable for grouping by ``group_names``."""
        if self.buffer_usable_for(group_names):
            self._translator.dag.record_rewrite(
                "buffer-reuse: aggregate over window buffer",
                pass_name="buffer-reuse",
                detail="aggregate over window buffer",
                nodes=("WINDOW",),
            )
            return self.buffer_op
        keys = tuple(group_names)
        num = self._translator.config.num_partitions if keys else 1
        return self._translator._partition_with_reuse(
            self.stream, keys, num, self.source_plan
        )
