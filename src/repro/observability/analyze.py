"""EXPLAIN ANALYZE rendering: the executed LOLEPOP DAG annotated with
actual vs. estimated cardinalities and per-operator time share.

Estimates walk each DAG with simple propagation rules mirroring how the
operators transform cardinality (the DAG-level analogue of
:class:`~repro.logical.cardinality.CardinalityEstimator`'s plan rules):
SOURCE nodes estimate their relational pipeline, HASHAGG/ORDAGG estimate
group counts against the region's input plan, buffer movers (PARTITION /
SORT / MERGE / WINDOW / SCAN) pass their input estimate through, COMBINE
takes the max (join mode) or sum (union mode) of its inputs. A node span
holds only what was measured, and so does the feedback store: EXPLAIN
ANALYZE, the one view that compares against an estimate, calls
:func:`estimate_dag_rows` for the DAGs it reads.

The Q-error of a node is ``max(est/actual, actual/est)`` (both clamped to
one row) — the standard estimate-quality measure; the summary line reports
the worst node, which is where the optimizer's model is most wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..logical import Aggregate, Limit, LogicalPlan, Sort, Window
from ..lolepop.base import Dag, Lolepop, SourceOp
from ..lolepop.combine_op import CombineOp
from ..lolepop.hashagg_op import HashAggOp
from ..lolepop.merge_op import MergeOp
from ..lolepop.ordagg_op import OrdAggOp
from ..lolepop.partition_op import PartitionOp
from ..lolepop.scan_op import ScanOp
from ..lolepop.sort_op import SortOp
from ..lolepop.window_op import WindowOp
from .metrics import executed_nodes

if TYPE_CHECKING:
    from ..execution.context import EngineConfig
    from ..execution.trace import ExecutionTrace, Span
    from ..logical.cardinality import CardinalityEstimator
    from ..lolepop.engine import QueryResult

#: A DAG's estimated output rows per node, keyed by ``id(node)``.
Estimates = Dict[int, Optional[float]]


def _region_input_plan(plan: Optional[LogicalPlan]) -> Optional[LogicalPlan]:
    """The logical plan feeding a statistics region's compute operators."""
    node = plan
    while isinstance(node, Limit):
        node = node.child
    if isinstance(node, (Aggregate, Window, Sort)):
        return node.child
    return node


def estimate_dag_rows(dag: Dag, estimator: CardinalityEstimator) -> Estimates:
    """Estimated output rows per DAG node, keyed by ``id(node)``.

    ``estimator`` is a
    :class:`~repro.logical.cardinality.CardinalityEstimator`; nodes whose
    estimate cannot be derived map to ``None``.
    """
    context = _region_input_plan(getattr(dag, "region_plan", None))
    estimates: Estimates = {}
    for node in dag.topological_order():
        estimates[id(node)] = _estimate_node(node, context, estimator, estimates)
    return estimates


def _estimate_node(
    node: Lolepop,
    context: Optional[LogicalPlan],
    estimator: CardinalityEstimator,
    estimates: Estimates,
) -> Optional[float]:
    def input_estimate() -> Optional[float]:
        if not node.inputs:
            return None
        return estimates.get(id(node.inputs[0]))

    try:
        if isinstance(node, SourceOp):
            plan = getattr(node, "plan", None)
            return estimator.rows(plan) if plan is not None else None
        if isinstance(node, HashAggOp):
            if context is None:
                return None
            return estimator.group_count(context, node.key_names)
        if isinstance(node, OrdAggOp):
            if context is None:
                return None
            return estimator.group_count(context, node.key_names)
        if isinstance(node, CombineOp):
            inputs = [estimates.get(id(i)) for i in node.inputs]
            known = [e for e in inputs if e is not None]
            if not known:
                return None
            return sum(known) if node.mode == "union" else max(known)
        if isinstance(node, ScanOp):
            estimate = input_estimate()
            if estimate is not None and node.limit is not None:
                estimate = float(min(estimate, node.limit))
            return estimate
        if isinstance(node, (PartitionOp, SortOp, MergeOp, WindowOp)):
            return input_estimate()
    except Exception:
        return None
    return input_estimate()


def q_error(estimate: Optional[float], actual: float) -> Optional[float]:
    """max(est/actual, actual/est), both sides clamped to >= 1 row."""
    if estimate is None:
        return None
    est = max(1.0, float(estimate))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


def region_skew(region: Span) -> Dict[str, Any]:
    """Morsel-skew metrics of one ``region`` span: the skew ratio
    ``max/mean`` of its work items' durations says how badly one straggling
    work item stretched the barrier — 1.0 is perfectly balanced, large
    values mean the region's makespan was set by a single morsel — plus the
    straggler's thread id so the slow-query log can attribute the stall. An
    item's duration sums its units (a chain item's steps, a split step's
    pieces), so steps of unequal weight are not skew; the straggler's thread
    is that of its longest unit."""
    items: Dict[int, list] = {}  # item index -> [seconds, longest unit]
    for unit in region.children:
        entry = items.setdefault(unit.item, [0.0, unit])
        entry[0] += unit.duration
        if unit.duration > entry[1].duration:
            entry[1] = unit
    max_s, straggler = max(items.values(), key=lambda entry: entry[0])
    mean_s = sum(entry[0] for entry in items.values()) / len(items)
    return {
        "operator": region.name,
        "phase": region.attrs["phase"],
        "items": region.attrs["items"],
        "max_s": max_s,
        "mean_s": mean_s,
        "skew": max_s / mean_s if mean_s > 0 else 1.0,
        "straggler_thread": straggler.thread,
    }


def morsel_skew(trace: Optional[ExecutionTrace]) -> List[Dict[str, Any]]:
    """:func:`region_skew` of every region of an
    :class:`~repro.execution.trace.ExecutionTrace`, worst skew first — one
    entry per ``run_region`` barrier, however many regions share an operator
    and a phase label. Returns ``[]`` for ``None`` / empty traces."""
    if trace is None:
        return []
    out = [region_skew(region) for region in trace.regions if region.children]
    out.sort(key=lambda entry: (-entry["skew"], entry["operator"]))
    return out


def _format_bytes(num: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(num) < 1024.0 or unit == "GB":
            return f"{num:.0f}{unit}" if unit == "B" else f"{num:.1f}{unit}"
        num /= 1024.0
    return f"{num:.1f}GB"


def render_analyze(
    result: QueryResult, config: EngineConfig, estimator: CardinalityEstimator
) -> str:
    """Render ``EXPLAIN ANALYZE`` output for an executed query.

    ``result`` is a :class:`~repro.lolepop.engine.QueryResult` produced with
    ``collect_trace=True`` (so every executed DAG node carries its
    ``node`` span). ``time=`` and ``work=`` are a node's *exclusive* time —
    a SOURCE that ran a nested region shows what it spent outside it, so
    the shares of all regions sum to 100 %. ``estimator`` is the database's
    :class:`~repro.logical.cardinality.CardinalityEstimator` (the one
    carrying feedback-store overrides).
    """
    if result.trace is None:
        raise ValueError("EXPLAIN ANALYZE requires a traced run")
    dags = result.dags
    kind = "measured" if config.execution_mode == "parallel" else "simulated"
    lines: List[str] = [
        f"EXPLAIN ANALYZE (lolepop, {config.num_threads} threads, "
        f"{config.execution_mode} mode)"
    ]
    # The worst-estimated executed node: (Q-error, where it is).
    worst: Optional[Tuple[float, str]] = None
    executed = executed_nodes(dags)
    total_time = sum(node.span.exclusive for _, _, node in executed) or 1.0
    for dag_index, dag in enumerate(dags):
        from ..lolepop.verify import derive_properties

        derived = derive_properties(dag)
        estimates = estimate_dag_rows(dag, estimator)
        order = dag.topological_order()
        ids = {id(node): i for i, node in enumerate(order)}
        if len(dags) > 1:
            lines.append(f"-- region {dag_index} --")
        for node in order:
            deps = ",".join(f"#{ids[id(i)]}" for i in node.inputs)
            describe = f" [{node.describe()}]" if node.describe() else ""
            head = f"#{ids[id(node)]} {node.name()}{describe}"
            if deps:
                head += f" <- {deps}"
            if node.span is None:
                lines.append(head + "  (not executed)")
                continue
            stats = node.span.attrs
            estimate = estimates[id(node)]
            parts = [f"rows={stats['rows_out']}"]
            parts.append(
                "est=?" if estimate is None else f"est={estimate:.0f}"
            )
            node_q = q_error(estimate, stats["rows_out"])
            if node_q is not None:
                parts.append(f"q={node_q:.2f}")
                if worst is None or node_q > worst[0]:
                    region = f"region {dag_index} " if len(dags) > 1 else ""
                    worst = (node_q, f"{region}#{ids[id(node)]} {node.name()}")
            work = node.span.exclusive
            parts.append(f"time={work / total_time * 100:.1f}%")
            parts.append(f"work={work * 1000:.2f}ms")
            if stats["bytes_materialized"]:
                parts.append(f"buf={_format_bytes(stats['bytes_materialized'])}")
            if stats["spill_bytes_written"] or stats["spill_bytes_read"]:
                parts.append(
                    f"spillW={_format_bytes(stats['spill_bytes_written'])}"
                    f" spillR={_format_bytes(stats['spill_bytes_read'])}"
                )
            for key, value in sorted(stats["extra"].items()):
                parts.append(f"{key}={value}")
            props = derived.get(id(node))
            note = props.render() if props is not None else ""
            if note:
                parts.append("{" + note + "}")
            lines.append(head + "  " + " ".join(parts))

    for join in result.joins:
        lines.append(
            f"{join['join']}  build={join['build_rows']} "
            f"keys={join['keys']} table={join['table']} {join['shape']} "
            f"probe={join['probe_rows']} matched={join['matched_rows']}"
        )
    if worst is not None:
        lines.append(f"max Q-error: {worst[0]:.2f} at {worst[1]}")
    else:
        lines.append("max Q-error: n/a (no estimates)")

    reuse_total = sum(
        1 for event in result.rewrites if event.pass_name == "buffer-reuse"
    )
    elide_total = sum(1 for _, _, node in executed if node.span.attrs["extra"].get("elided"))
    spill_w = result.spill["bytes_written"]
    spill_r = result.spill["bytes_read"]
    spill_in = result.spill["partition_input_bytes"]
    # Write amplification: bytes written per byte that entered a budgeted
    # PARTITION (1.0 = every tuple written once and nothing else).
    amplification = f", {spill_w / spill_in:.2f}× partition input" if spill_in else ""
    lines.append(
        f"buffer-reuse: {reuse_total}  sort-elisions: {elide_total}  "
        f"spill: {_format_bytes(spill_w)} written / {_format_bytes(spill_r)} read"
        + amplification
    )
    if result.rewrites:
        lines.append("rewrites:")
        lines.extend(f"  {event}" for event in result.rewrites)
    # The worst-skewed regions (a one-item region cannot be skewed).
    skewed = [e for e in morsel_skew(result.trace) if e["items"] >= 2 and e["skew"] >= 1.5]
    if skewed:
        lines.append("morsel skew (top phases):")
    for entry in skewed[:3]:
        lines.append(
            f"  {entry['operator']}/{entry['phase']}: skew {entry['skew']:.2f} "
            f"(max {entry['max_s'] * 1000:.2f}ms / mean "
            f"{entry['mean_s'] * 1000:.2f}ms over {entry['items']} morsels, "
            f"straggler T{entry['straggler_thread']})"
        )
    lines.append(
        f"total work {result.serial_time * 1000:.2f} ms, "
        f"{kind} makespan {result.simulated_time * 1000:.2f} ms"
    )
    return "\n".join(lines)
