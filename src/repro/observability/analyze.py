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


def profile_max_q_error(profile, estimator) -> Optional[float]:
    """The worst node-level Q-error across every DAG of a
    :class:`~repro.observability.metrics.QueryProfile` — the same number
    EXPLAIN ANALYZE's summary line reports, exposed for the telemetry
    layer's per-query :class:`~repro.observability.telemetry.QueryRecord`.
    Returns ``None`` when no node has both an estimate and stats.
    """
    worst: Optional[float] = None
    for dag in profile.dags:
        estimates = estimate_dag_rows(dag, estimator)
        for node in dag.topological_order():
            stats = getattr(node, "stats", None)
            if stats is None:
                continue
            node_q = q_error(estimates.get(id(node)), stats.rows_out)
            if node_q is not None and (worst is None or node_q > worst):
                worst = node_q
    return worst


def morsel_skew(trace) -> List[dict]:
    """Per-(operator, phase) morsel-skew metrics derived from an
    :class:`~repro.execution.trace.ExecutionTrace`.

    For each parallel phase the skew ratio ``max/mean`` of per-morsel
    durations says how badly one straggling work item stretched the
    barrier: 1.0 is perfectly balanced, large values mean the phase's
    makespan was set by a single morsel. Each entry carries the straggler's
    thread id so the slow-query log can attribute the stall. Sorted worst
    skew first. Returns ``[]`` for ``None`` / empty traces.
    """
    if trace is None or not getattr(trace, "records", None):
        return []
    groups: Dict[tuple, List] = {}
    for record in trace.records:
        groups.setdefault((record.operator, record.phase), []).append(record)
    out: List[dict] = []
    for (operator, phase), records in groups.items():
        durations = [r.duration for r in records]
        worst = max(records, key=lambda r: r.duration)
        max_s = worst.duration
        mean_s = sum(durations) / len(durations)
        out.append(
            {
                "operator": operator,
                "phase": phase,
                "items": len(records),
                "max_s": max_s,
                "mean_s": mean_s,
                "skew": max_s / mean_s if mean_s > 0 else 1.0,
                "straggler_thread": worst.thread,
            }
        )
    out.sort(key=lambda entry: (-entry["skew"], entry["operator"]))
    return out


def render_morsel_skew(trace, limit: int = 3, min_skew: float = 1.5) -> List[str]:
    """Human-readable lines for the worst-skewed parallel phases (only
    phases with more than one morsel and skew >= ``min_skew`` — a serial
    phase cannot be skewed)."""
    lines: List[str] = []
    for entry in morsel_skew(trace):
        if entry["items"] < 2 or entry["skew"] < min_skew:
            continue
        lines.append(
            f"{entry['operator']}/{entry['phase']}: skew {entry['skew']:.2f} "
            f"(max {entry['max_s'] * 1000:.2f}ms / mean "
            f"{entry['mean_s'] * 1000:.2f}ms over {entry['items']} morsels, "
            f"straggler T{entry['straggler_thread']})"
        )
        if len(lines) >= limit:
            break
    return lines


def _format_bytes(num: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(num) < 1024.0 or unit == "GB":
            return f"{num:.0f}{unit}" if unit == "B" else f"{num:.1f}{unit}"
        num /= 1024.0
    return f"{num:.1f}GB"


def render_analyze(result, catalog, config, estimator=None) -> str:
    """Render ``EXPLAIN ANALYZE`` output for an executed query.

    ``result`` is a :class:`~repro.lolepop.engine.QueryResult` produced with
    ``collect_metrics=True`` (so every DAG node carries
    :class:`~repro.observability.metrics.OperatorStats`). ``estimator``
    lets the caller supply a calibrated
    :class:`~repro.logical.cardinality.CardinalityEstimator` (one carrying
    feedback-store overrides); without one a fresh uncalibrated estimator
    is built from the catalog.
    """
    from ..logical.cardinality import CardinalityEstimator
    from ..stats import StatisticsCache

    profile = result.profile
    if profile is None:
        raise ValueError("EXPLAIN ANALYZE requires a collected profile")
    if estimator is None:
        estimator = CardinalityEstimator(StatisticsCache(catalog))
    kind = "measured" if config.execution_mode == "parallel" else "simulated"
    lines: List[str] = [
        f"EXPLAIN ANALYZE (lolepop, {config.num_threads} threads, "
        f"{config.execution_mode} mode)"
    ]
    total_time = profile.total_operator_time() or 1.0
    worst: Optional[tuple] = None  # (q, label)
    for dag_index, dag in enumerate(profile.dags):
        from ..lolepop.verify import derive_properties

        estimates = estimate_dag_rows(dag, estimator)
        derived = derive_properties(dag)
        order = dag.topological_order()
        ids = {id(node): i for i, node in enumerate(order)}
        if len(profile.dags) > 1:
            lines.append(f"-- region {dag_index} --")
        for node in order:
            stats = getattr(node, "stats", None)
            estimate = estimates.get(id(node))
            deps = ",".join(f"#{ids[id(i)]}" for i in node.inputs)
            describe = f" [{node.describe()}]" if node.describe() else ""
            head = f"#{ids[id(node)]} {node.name()}{describe}"
            if deps:
                head += f" <- {deps}"
            if stats is None:
                lines.append(head + "  (not executed)")
                continue
            parts = [f"rows={stats.rows_out}"]
            parts.append(
                "est=?" if estimate is None else f"est={estimate:.0f}"
            )
            node_q = q_error(estimate, stats.rows_out)
            if node_q is not None:
                parts.append(f"q={node_q:.2f}")
                label = f"#{ids[id(node)]} {node.name()}"
                if len(profile.dags) > 1:
                    label = f"region {dag_index} {label}"
                if worst is None or node_q > worst[0]:
                    worst = (node_q, label)
            parts.append(f"time={stats.wall_time / total_time * 100:.1f}%")
            parts.append(f"work={stats.wall_time * 1000:.2f}ms")
            if stats.peak_buffer_bytes:
                parts.append(f"buf={_format_bytes(stats.peak_buffer_bytes)}")
            if stats.buffer_reuse_hits:
                parts.append(f"reuse={stats.buffer_reuse_hits}")
            if stats.sort_elisions:
                parts.append(f"elided={stats.sort_elisions}")
            if stats.spill_bytes_written or stats.spill_bytes_read:
                parts.append(
                    f"spillW={_format_bytes(stats.spill_bytes_written)}"
                    f" spillR={_format_bytes(stats.spill_bytes_read)}"
                )
            for key, value in sorted(stats.extra.items()):
                parts.append(f"{key}={value}")
            props = derived.get(id(node))
            note = props.render() if props is not None else ""
            if note:
                parts.append("{" + note + "}")
            lines.append(head + "  " + " ".join(parts))

    for join in profile.joins:
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
        1 for event in profile.rewrites if event.pass_name == "buffer-reuse"
    )
    elide_total = sum(
        stats.sort_elisions for *_rest, stats in profile.operator_stats()
    )
    spill_w = profile.counters.get("spill.bytes_written", 0)
    spill_r = profile.counters.get("spill.bytes_read", 0)
    spill_in = profile.counters.get("spill.partition_input_bytes", 0)
    # Write amplification: bytes written per byte that entered a budgeted
    # PARTITION (1.0 = every tuple written once and nothing else).
    amplification = f", {spill_w / spill_in:.2f}× partition input" if spill_in else ""
    lines.append(
        f"buffer-reuse: {reuse_total}  sort-elisions: {elide_total}  "
        f"spill: {_format_bytes(spill_w)} written / {_format_bytes(spill_r)} read"
        + amplification
    )
    if profile.rewrites:
        lines.append("rewrites:")
        for event in profile.rewrites:
            cost = event.render_cost()
            lines.append(f"  {event}" + (f"  {cost}" if cost else ""))
    skew_lines = render_morsel_skew(result.trace)
    if skew_lines:
        lines.append("morsel skew (top phases):")
        lines.extend(f"  {line}" for line in skew_lines)
    for name in sorted(profile.counters):
        if not name.startswith("spill."):
            lines.append(f"counter {name}: {profile.counters[name]:g}")
    lines.append(
        f"total work {result.serial_time * 1000:.2f} ms, "
        f"{kind} makespan {result.simulated_time * 1000:.2f} ms"
    )
    return "\n".join(lines)
