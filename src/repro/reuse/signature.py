"""Reusable fragment shapes for cross-query reuse.

A *source chain* is the relational fragment below a statistics region when
it is a Scan of one base table with an optional stack of Filter/Project
stages — the shape whose output is a pure function of (table contents,
stage expressions). Its identity is the fragment's
:meth:`~repro.logical.plan.LogicalPlan.key` — scan table, the columns the
(pruned) scan reads, every stage's expressions — so two textually different
queries with the same bound fragment share one cached buffer.

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
    # Deliberately not the scan's own key: the columns it reads vary with
    # each statement's pruning, and the projection already says which the
    # fragment exposes.
    core = (scan.table_name.lower(),) + tuple(s.node_key() for s in inner)
    return core, projection


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
