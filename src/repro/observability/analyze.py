"""EXPLAIN ANALYZE rendering: the executed LOLEPOP DAG annotated with
actual vs. estimated cardinalities and per-operator time share.

Estimates walk each DAG with simple propagation rules mirroring how the
operators transform cardinality (the DAG-level analogue of
:class:`~repro.logical.cardinality.CardinalityEstimator`'s plan rules):
SOURCE nodes estimate their relational pipeline, HASHAGG/ORDAGG estimate
group counts against the region's input plan, buffer movers (PARTITION /
SORT / MERGE / WINDOW / SCAN) pass their input estimate through, COMBINE
takes the max (join mode) or sum (union mode) of its inputs.

The Q-error of a node is ``max(est/actual, actual/est)`` (both clamped to
one row) — the standard estimate-quality measure; the summary line reports
the worst node, which is where the optimizer's model is most wrong.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..logical import Aggregate, Limit, LogicalPlan, Sort, Window
from ..lolepop.base import Dag, SourceOp
from ..lolepop.combine_op import CombineOp
from ..lolepop.hashagg_op import HashAggOp
from ..lolepop.merge_op import MergeOp
from ..lolepop.ordagg_op import OrdAggOp
from ..lolepop.partition_op import PartitionOp
from ..lolepop.scan_op import ScanOp
from ..lolepop.sort_op import SortOp
from ..lolepop.window_op import WindowOp
from .metrics import executed_nodes


def _region_input_plan(plan: Optional[LogicalPlan]) -> Optional[LogicalPlan]:
    """The logical plan feeding a statistics region's compute operators."""
    node = plan
    while isinstance(node, Limit):
        node = node.child
    if isinstance(node, (Aggregate, Window, Sort)):
        return node.child
    return node


def estimate_dag_rows(dag: Dag, estimator) -> Dict[int, Optional[float]]:
    """Estimated output rows per DAG node, keyed by ``id(node)``.

    ``estimator`` is a
    :class:`~repro.logical.cardinality.CardinalityEstimator`; nodes whose
    estimate cannot be derived map to ``None``.
    """
    context = _region_input_plan(getattr(dag, "region_plan", None))
    estimates: Dict[int, Optional[float]] = {}
    for node in dag.topological_order():
        estimates[id(node)] = _estimate_node(node, context, estimator, estimates)
    return estimates


def _estimate_node(node, context, estimator, estimates) -> Optional[float]:
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


def q_error(estimate: Optional[float], actual: int) -> Optional[float]:
    """max(est/actual, actual/est), both sides clamped to >= 1 row."""
    if estimate is None:
        return None
    est = max(1.0, float(estimate))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


def attach_estimates(dags, estimator) -> None:
    """Put the estimated output rows of every executed node on its span
    (``attrs["est_rows"]``, ``None`` where no estimate can be derived) —
    once per traced execution: a span that carries one is skipped. The max
    Q-error, EXPLAIN ANALYZE and the feedback observations all read them
    from there."""
    for dag in dags:
        estimates = None
        for node in dag.topological_order():
            if node.span is None or "est_rows" in node.span.attrs:
                continue
            if estimates is None:
                estimates = estimate_dag_rows(dag, estimator)
            node.span.attrs["est_rows"] = estimates.get(id(node))


def worst_q_error(dags, estimator) -> Optional[tuple]:
    """``(Q-error, dag index, node index, node)`` of the worst-estimated
    executed node across ``dags`` — EXPLAIN ANALYZE's summary line and the
    ``max_q_error`` of the statement's
    :class:`~repro.observability.telemetry.QueryRecord`. ``None`` when no
    node has an estimate."""
    attach_estimates(dags, estimator)
    scored = [
        (q_error(node.span.attrs["est_rows"], node.span.attrs["rows_out"]), dag, index, node)
        for dag, index, node in executed_nodes(dags)
    ]
    return max((s for s in scored if s[0] is not None), key=lambda s: s[0], default=None)


def region_skew(region) -> dict:
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


def morsel_skew(trace) -> List[dict]:
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


def render_analyze(result, config, estimator) -> str:
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
    worst = worst_q_error(dags, estimator)  # attaches the estimates
    executed = executed_nodes(dags)
    total_time = sum(node.span.exclusive for _, _, node in executed) or 1.0
    for dag_index, dag in enumerate(dags):
        from ..lolepop.verify import derive_properties

        derived = derive_properties(dag)
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
            estimate = stats["est_rows"]
            parts = [f"rows={stats['rows_out']}"]
            parts.append(
                "est=?" if estimate is None else f"est={estimate:.0f}"
            )
            node_q = q_error(estimate, stats["rows_out"])
            if node_q is not None:
                parts.append(f"q={node_q:.2f}")
            work = node.span.exclusive
            parts.append(f"time={work / total_time * 100:.1f}%")
            parts.append(f"work={work * 1000:.2f}ms")
            if stats["peak_buffer_bytes"]:
                parts.append(f"buf={_format_bytes(stats['peak_buffer_bytes'])}")
            if stats["buffer_reuse_hits"]:
                parts.append(f"reuse={stats['buffer_reuse_hits']}")
            if stats["sort_elisions"]:
                parts.append(f"elided={stats['sort_elisions']}")
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
        node_q, dag_index, node_index, node = worst
        region = f"region {dag_index} " if len(dags) > 1 else ""
        lines.append(f"max Q-error: {node_q:.2f} at {region}#{node_index} {node.name()}")
    else:
        lines.append("max Q-error: n/a (no estimates)")

    reuse_total = sum(
        1 for event in result.rewrites if event.pass_name == "buffer-reuse"
    )
    elide_total = sum(node.span.attrs["sort_elisions"] for _, _, node in executed)
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
