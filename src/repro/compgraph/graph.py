"""Computation-graph extraction and rendering (the middle of Figure 1).

``computation_graph`` walks a bound logical plan's aggregation region and
returns the dependency graph between input values, window computations,
aggregates and output expressions. ``render_computation_graph`` prints it
as indented ASCII — used by examples and the plan-shape tests to show how
composed statistics share primitives.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..expr.eval import columns_referenced
from ..logical import Aggregate, LogicalPlan, Project, Window


class GraphNode:
    """One computation: kind ∈ {'value', 'window', 'aggregate', 'expr'}."""

    __slots__ = ("name", "kind", "label", "depends_on")

    def __init__(self, name: str, kind: str, label: str, depends_on: List[str]):
        self.name = name
        self.kind = kind
        self.label = label
        self.depends_on = depends_on

    def __repr__(self) -> str:
        deps = ", ".join(self.depends_on)
        return f"{self.name} [{self.kind}] {self.label}" + (
            f" <- {deps}" if deps else ""
        )


def computation_graph(plan: LogicalPlan) -> List[GraphNode]:
    """Extract the computation graph of the topmost aggregation region."""
    nodes: List[GraphNode] = []
    seen: Dict[str, GraphNode] = {}

    def add(node: GraphNode) -> None:
        if node.name not in seen:
            seen[node.name] = node
            nodes.append(node)

    # Walk down: output Project -> Aggregate -> Project -> [Window -> Project].
    output_project: Optional[Project] = None
    node = plan
    if isinstance(node, Project):
        output_project = node
        node = node.child
    while isinstance(node, Project):
        node = node.child
    if not isinstance(node, Aggregate):
        return []
    aggregate = node

    pre_project = aggregate.child if isinstance(aggregate.child, Project) else None
    window = None
    below = pre_project.child if pre_project is not None else aggregate.child
    if isinstance(below, Window):
        window = below

    # Input values: everything the pre-projection reads.
    base_schema = (window.child if window else aggregate.child).schema
    for field in base_schema.fields:
        add(GraphNode(field.name, "value", field.name, []))

    if window is not None:
        for call in window.calls:
            deps = sorted(
                set().union(*(columns_referenced(a) for a in call.args))
                if call.args else set()
            )
            deps += [r.name for r in call.partition_by]
            deps += [r.name for r, _ in call.order_by]
            add(GraphNode(call.name, "window", repr(call), sorted(set(deps))))

    if pre_project is not None:
        for name, expr in pre_project.items:
            deps = sorted(columns_referenced(expr))
            if deps != [name]:
                add(GraphNode(name, "expr", repr(expr), deps))

    for call in aggregate.aggregates:
        deps = sorted(
            set().union(*(columns_referenced(a) for a in call.args))
            if call.args else set()
        )
        add(GraphNode(call.name, "aggregate", repr(call), deps))

    if output_project is not None:
        for name, expr in output_project.items:
            deps = sorted(columns_referenced(expr))
            if deps != [name]:
                add(GraphNode(name, "expr", repr(expr), deps))
    return nodes


def render_computation_graph(plan: LogicalPlan) -> str:
    nodes = computation_graph(plan)
    if not nodes:
        return "(no aggregation region)"
    lines = []
    for node in nodes:
        deps = ", ".join(node.depends_on)
        lines.append(
            f"{node.kind:>9}  {node.name:<12} {node.label}"
            + (f"   <- [{deps}]" if deps else "")
        )
    return "\n".join(lines)
