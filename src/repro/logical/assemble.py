"""Normalized-plan assembly shared by the SQL binder and the planner API.

Both frontends collect the same ingredients — group-key expressions,
interned :class:`AggregateCall`/:class:`WindowCall` lists, and output
expressions referencing the interned placeholders — and both need the same
normalized operator stack:

    Project(outputs)
      └─ [Filter(having)]
           └─ Aggregate(group keys, calls)
                └─ Project(group keys + aggregate arguments)
                     └─ [Window(calls)
                          └─ Project(window inputs)]
                               └─ source

These helpers build that stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..aggregates import AggregateCall, WindowCall
from ..errors import BindError
from ..expr.eval import columns_referenced
from ..expr.nodes import ColumnRef, Expr, rewrite
from .plan import Aggregate, Filter, LogicalPlan, Project, Window


def substitute(expr: Expr, mapping: Dict[Tuple, ColumnRef]) -> Expr:
    """Replace every subexpression whose structural key appears in
    ``mapping`` by the mapped column reference (how SELECT items that repeat
    a GROUP BY expression resolve to the grouped column)."""
    return rewrite(expr, lambda node: mapping.get(node.key()))


def attach_window_stage(
    plan: LogicalPlan, windows: List[WindowCall]
) -> LogicalPlan:
    """Insert a projection computing window inputs, then a Window node.

    Mutates the calls' args/keys into plain column references (the
    normalization invariant)."""
    schema = plan.schema
    proj_items: List[Tuple[str, Expr]] = [
        (field.name, ColumnRef(field.name)) for field in schema
    ]
    names_taken: Dict[Tuple, str] = {
        ColumnRef(field.name).key(): field.name for field in schema
    }

    def column_for(expr: Expr) -> str:
        key = expr.key()
        if key in names_taken:
            return names_taken[key]
        name = f"_w{len(proj_items)}"
        names_taken[key] = name
        proj_items.append((name, expr))
        return name

    for call in windows:
        call.args = [ColumnRef(column_for(arg)) for arg in call.args]
        call.partition_by = [
            ColumnRef(column_for(expr)) for expr in call.partition_by
        ]
        call.order_by = [
            (ColumnRef(column_for(expr)), desc) for expr, desc in call.order_by
        ]
    if len(proj_items) > len(schema):
        plan = Project(plan, proj_items)
    return Window(plan, windows)


def assemble_grouped(
    plan: LogicalPlan,
    aggregates: List[AggregateCall],
    windows: List[WindowCall],
    group_exprs: List[Expr],
    grouping_sets: Optional[List[Tuple[int, ...]]],
    output_items: List[Tuple[str, Expr]],
    having: Optional[Expr] = None,
) -> LogicalPlan:
    """Build the grouped-query stack (see module docstring).

    ``grouping_sets`` holds index tuples into ``group_exprs``. Mutates the
    aggregate calls' args into plain column references."""
    if windows:
        plan = attach_window_stage(plan, windows)

    proj_items: List[Tuple[str, Expr]] = []
    names_taken: Dict[Tuple, str] = {}

    def column_for(expr: Expr, prefix: str) -> str:
        key = expr.key()
        if key in names_taken:
            return names_taken[key]
        if isinstance(expr, ColumnRef):
            names_taken[key] = expr.name
            proj_items.append((expr.name, expr))
            return expr.name
        name = f"{prefix}{len(proj_items)}"
        names_taken[key] = name
        proj_items.append((name, expr))
        return name

    group_names = [column_for(expr, "_g") for expr in group_exprs]
    for call in aggregates:
        call.args = [ColumnRef(column_for(arg, "_a")) for arg in call.args]
        call.order_by = [
            (ColumnRef(column_for(expr, "_o")), desc)
            for expr, desc in call.order_by
        ]
    if not proj_items:
        # SELECT count(*) with no keys: a zero-column projection would lose
        # the row count in columnar batches — keep one constant column.
        from ..expr.nodes import Literal
        from ..types import DataType

        proj_items.append(("_one", Literal(1, DataType.INT64)))
    plan = Project(plan, proj_items)

    named_sets = None
    if grouping_sets is not None:
        named_sets = [
            tuple(group_names[i] for i in indices) for indices in grouping_sets
        ]
    plan = Aggregate(plan, group_names, list(aggregates), named_sets)

    # Output expressions repeating a grouped expression resolve to the group
    # column (e.g. SELECT a + 1 ... GROUP BY a + 1).
    group_map = {
        expr.key(): ColumnRef(name)
        for expr, name in zip(group_exprs, group_names)
        if not isinstance(expr, ColumnRef)
    }
    if group_map:
        output_items = [
            (name, substitute(expr, group_map)) for name, expr in output_items
        ]
        if having is not None:
            having = substitute(having, group_map)

    if having is not None:
        plan = Filter(plan, having)

    for name, expr in output_items:
        for ref in columns_referenced(expr):
            if not plan.schema.has(ref):
                raise BindError(
                    f"column {ref!r} must appear in GROUP BY or an aggregate"
                )
    return Project(plan, output_items)
