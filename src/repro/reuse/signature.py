"""Structural signatures for cross-query reuse.

A *region signature* identifies the relational fragment below a statistics
region when it is a Scan of one base table with an optional stack of
Filter/Project stages — the shape whose output is a pure function of
(table contents, stage expressions). The signature is built from
:meth:`repro.expr.nodes.Expr.key`, the same structural identity the
expression layer uses for equality, so two textually different queries
with the same bound fragment share one signature.

:func:`apply_stages` re-evaluates the captured stage chain over a batch
with exactly the semantics of
:meth:`repro.relational.executor.RelationalExecutor._compile_map_chain` —
the view maintenance path uses it to map base-table deltas through the
fragment before merging them into materialized aggregate state.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..logical.plan import Filter, LogicalPlan, Project, Scan
from ..storage.batch import Batch


def source_chain(
    plan: LogicalPlan,
) -> Optional[Tuple[Scan, List[LogicalPlan]]]:
    """``(scan, stages)`` when ``plan`` is a single-table Scan under an
    optional Filter/Project stack; ``None`` for any other shape (joins,
    nested aggregates, windows). ``stages`` are in execution order
    (closest to the scan first)."""
    stages: List[LogicalPlan] = []
    node = plan
    while isinstance(node, (Filter, Project)):
        stages.append(node)
        node = node.children[0]
    if not isinstance(node, Scan):
        return None
    stages.reverse()
    return node, stages


def _stage_sig(stage: LogicalPlan) -> Tuple:
    if isinstance(stage, Filter):
        return ("filter", stage.predicate.key())
    return (
        "project",
        tuple((name.lower(), expr.key()) for name, expr in stage.items),
    )


def chain_signature(plan: LogicalPlan) -> Optional[Tuple]:
    """Hashable structural identity of a Scan + Filter/Project fragment,
    or ``None`` when the fragment has any other shape."""
    chain = source_chain(plan)
    if chain is None:
        return None
    scan, stages = chain
    # The columns read are part of the identity: column pruning narrows the
    # scan per statement, and a cached buffer holds exactly those columns.
    columns = tuple(name.lower() for name in scan.schema.names())
    parts: List[Tuple] = [("scan", scan.table_name.lower(), columns)]
    parts.extend(_stage_sig(stage) for stage in stages)
    return tuple(parts)


def view_fragment(plan: LogicalPlan) -> Optional[Tuple[Tuple, Tuple]]:
    """``(core, projection)`` signature split for aggregate-view matching.

    ``core`` identifies the scan and every stage *below* the trailing
    projection; ``projection`` is the sorted per-column map the fragment
    exposes on top of it — ``((name, expr key), ...)``. Two fragments
    with equal cores where one's projection is a subset of the other's
    compute identical values for the shared columns, which is what lets
    a view built for ``SELECT a, b, v ...`` answer a query projecting
    only ``(a, v)`` (the binder emits one trailing Project per query,
    sized to that query's column needs)."""
    chain = source_chain(plan)
    if chain is None:
        return None
    scan, stages = chain
    if stages and isinstance(stages[-1], Project):
        inner = stages[:-1]
        projection = tuple(
            sorted(
                (name.lower(), expr.key()) for name, expr in stages[-1].items
            )
        )
    else:
        # No trailing projection: every output column is a passthrough of
        # the scan/filter output, keyed exactly as a ColumnRef would be.
        from ..expr.nodes import ColumnRef

        inner = stages
        out_schema = stages[-1].schema if stages else scan.schema
        projection = tuple(
            sorted(
                (f.name.lower(), ColumnRef(f.name).key()) for f in out_schema
            )
        )
    core: List[Tuple] = [("scan", scan.table_name.lower())]
    core.extend(_stage_sig(stage) for stage in inner)
    return tuple(core), projection


def apply_stages(stages: List[LogicalPlan], batch: Batch) -> Batch:
    """Evaluate a captured Filter/Project chain over one batch, mirroring
    the relational executor's compiled map chain exactly (same mask
    semantics, same projection evaluation order)."""
    from ..expr.eval import evaluate

    for stage in stages:
        if isinstance(stage, Filter):
            mask_col = evaluate(stage.predicate, batch)
            mask = mask_col.values.astype(bool) & mask_col.valid_mask()
            batch = batch.filter(mask)
        else:
            batch = Batch(
                stage.schema,
                [evaluate(expr, batch) for _, expr in stage.items],
            )
    return batch
