"""Column pruning — the last step of binding.

The binder resolves ``FROM t`` to a :class:`Scan` of every column of ``t``
and the operators above pass their child's columns through, so without this
pass a window over three of ``readings``' six columns partitions, sorts (and
under a memory budget spills) all six, and a join gathers every column of
both sides. :func:`prune_columns` walks the plan top-down with the set of
output columns something above references and rebuilds each operator over
children narrowed to what it and its ancestors read:

- ``Scan`` itself is narrowed (the executor reads only those table columns);
  no ``Project`` is stacked on top of it;
- ``Project`` drops unreferenced items; ``Filter`` / ``Sort`` / ``Window`` /
  ``Aggregate`` add the columns their own expressions read;
- a ``Join`` maps required *output* names back to the side they come from
  through the unpruned output schema, and the pruned join keeps those output
  names — including :meth:`Schema.concat <repro.types.Schema.concat>`'s
  ``_1`` collision suffixes, which re-deriving the schema from the narrowed
  children could silently change;
- ``UnionAll`` prunes by position, each branch to exactly the same columns.

Every operator keeps at least one column (``count(*)`` reads none, but a
zero-column batch has no row count). Aggregate and window *calls* are never
dropped, so the LOLEPOP DAG of a statement keeps its shape. A sub-plan
referenced twice (a CTE) is pruned once per reference, each to its own
needs. The pass never mutates its input: the unpruned plan stays valid,
which is how the tests compare the two.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Optional

from ..expr.eval import columns_referenced
from ..expr.nodes import ColumnRef, Expr
from ..types import Schema
from .plan import (
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

if TYPE_CHECKING:
    from ..observability.provenance import RewriteEvent

Names = FrozenSet[str]  # lower-cased column names


def prune_columns(plan: LogicalPlan) -> LogicalPlan:
    """``plan`` with every operator's input narrowed to the columns read
    above it; same output schema, same rows. Each narrowed scan is recorded
    as a ``prune-columns`` :class:`~repro.observability.provenance.RewriteEvent`
    on the returned root's :attr:`LogicalPlan.rewrites`."""
    pruner = _Pruner()
    pruned = pruner.prune(plan, _names(plan.schema.names()))
    if pruner.events:
        pruned.rewrites = plan.rewrites + tuple(pruner.events)
    return pruned


def _names(names: Iterable[str]) -> Names:
    return frozenset(name.lower() for name in names)


def _refs(exprs: Iterable[Optional[Expr]]) -> Names:
    out: set = set()
    for expr in exprs:
        if type(expr) is ColumnRef:  # the normalized plans' common case
            out.add(expr.name)
        elif expr is not None:
            out.update(columns_referenced(expr))
    return _names(out)


class _Pruner:
    def __init__(self) -> None:
        self.events: List[RewriteEvent] = []

    def prune(self, plan: LogicalPlan, required: Names) -> LogicalPlan:
        """A plan computing ``plan``'s rows whose schema is an
        order-preserving subset of ``plan.schema`` that contains
        ``required`` (and at least one column). Returns ``plan`` itself
        when nothing below it narrows."""
        if isinstance(plan, Scan):
            return self._scan(plan, required)
        if isinstance(plan, Project):
            items = [
                item for item in plan.items if item[0].lower() in required
            ] or plan.items[:1]
            child = self.prune(plan.child, _refs(expr for _, expr in items))
            if child is plan.child and len(items) == len(plan.items):
                return plan
            return Project(child, items)
        if isinstance(plan, Filter):
            child = self.prune(plan.child, required | _refs([plan.predicate]))
            return plan if child is plan.child else Filter(child, plan.predicate)
        if isinstance(plan, Sort):
            keys = _names(name for name, _ in plan.keys)
            child = self.prune(plan.child, required | keys)
            return plan if child is plan.child else Sort(child, plan.keys)
        if isinstance(plan, Limit):
            child = self.prune(plan.child, required)
            if child is plan.child:
                return plan
            return Limit(child, plan.limit, plan.offset)
        if isinstance(plan, Window):
            own = _names(call.name for call in plan.calls)
            reads = _refs(expr for call in plan.calls for expr in call.exprs())
            child = self.prune(plan.child, (required - own) | reads)
            return plan if child is plan.child else Window(child, plan.calls)
        if isinstance(plan, Aggregate):
            reads = _names(plan.group_names) | _refs(
                expr for call in plan.aggregates for expr in call.exprs()
            )
            child = self.prune(plan.child, reads)
            if child is plan.child:
                return plan
            return Aggregate(
                child, plan.group_names, plan.aggregates, plan.grouping_sets
            )
        if isinstance(plan, Join):
            return self._join(plan, required)
        if isinstance(plan, UnionAll):
            return self._union(plan, required)
        return plan

    # ------------------------------------------------------------------
    def _scan(self, plan: Scan, required: Names) -> LogicalPlan:
        kept = [
            field for field in plan.schema if field.name.lower() in required
        ] or plan.schema.fields[:1]
        if len(kept) == len(plan.schema):
            return plan
        from ..observability.provenance import RewriteEvent

        detail = f"{plan.table_name} {len(plan.schema)}→{len(kept)}"
        self.events.append(
            RewriteEvent(
                f"prune-columns: {detail}", pass_name="prune-columns",
                detail=detail, nodes=(plan.label(),),
            )
        )
        return Scan(plan.table_name, Schema(kept))

    def _join(self, plan: Join, required: Names) -> LogicalPlan:
        left, right = plan.left, plan.right
        if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
            new_left = self.prune(left, required | _names(plan.left_keys))
            new_right = self.prune(right, _names(plan.right_keys))
            if new_left is left and new_right is right:
                return plan
            return Join(
                new_left, new_right, plan.kind, plan.left_keys, plan.right_keys
            )
        out_names = plan.schema.names()
        if plan.residual is not None:
            required = _names(out_names)  # evaluated over the whole row
        # Output column i comes from the left side for i < len(left.schema),
        # from the right side (possibly renamed on collision) after that.
        split = len(left.schema)
        left_out = dict(zip(left.schema.names(), out_names[:split]))
        right_out = dict(zip(right.schema.names(), out_names[split:]))
        new_left = self.prune(
            left,
            _names(n for n, out in left_out.items() if out.lower() in required)
            | _names(plan.left_keys),
        )
        new_right = self.prune(
            right,
            _names(n for n, out in right_out.items() if out.lower() in required)
            | _names(plan.right_keys),
        )
        if new_left is left and new_right is right:
            return plan
        return Join(
            new_left, new_right, plan.kind, plan.left_keys, plan.right_keys,
            plan.residual,
            output_names=[left_out[n] for n in new_left.schema.names()]
            + [right_out[n] for n in new_right.schema.names()],
        )

    def _union(self, plan: UnionAll, required: Names) -> LogicalPlan:
        positions = [
            index for index, field in enumerate(plan.schema)
            if field.name.lower() in required
        ] or [0]
        children = []
        for child in plan.children:
            names = [child.schema.fields[index].name for index in positions]
            pruned = self.prune(child, _names(names))
            if pruned.schema.names() != names:
                # The branch kept columns only it reads (a filter's, say):
                # branches line up by position, so cut it to size.
                pruned = Project(pruned, [(n, ColumnRef(n)) for n in names])
            children.append(pruned)
        if all(new is old for new, old in zip(children, plan.children)):
            return plan
        return UnionAll(children)
