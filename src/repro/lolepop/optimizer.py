"""DAG optimization passes (step E of Figure 2).

Several of the paper's step-E decisions are made during construction
(buffer reuse, aggregation-strategy selection, producer ordering via
``after`` edges) or at runtime (sort elision when the buffer's ordering
already has the required prefix; sort-mode selection by tuple width). The
passes here operate on the built DAG:

- :func:`remove_redundant_combines` — a join-mode COMBINE with a single
  producer is the identity and is spliced out (Figure 1's COMBINE(d,c)).
- :func:`elide_redundant_sorts` — a SORT whose buffer already carries the
  required ordering as a prefix is removed statically, simulating buffer
  state along the DAG's execution order (the MSSD plan's group-key sort,
  Figure 3 plan 5). A runtime check in SortOp covers anything this static
  pass cannot prove.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..execution.context import EngineConfig
from .base import Dag, Lolepop, buffer_root
from .combine_op import CombineOp
from .sort_op import SortOp


def optimize(dag: Dag, config: EngineConfig) -> None:
    """Run all enabled passes in place; record each fired pass in
    ``dag.rewrites`` as a structured
    :class:`~repro.observability.provenance.RewriteEvent` — pass name and
    the names of the nodes it removed — so EXPLAIN ANALYZE and
    ``tools/plan_diff.py`` can attribute a removed operator to the step-E
    decision that caused it. The passes are heuristics and are not priced.

    Under ``verify_plans="strict"`` the DAG is re-verified after every
    pass that fired, so a plan-breaking rewrite is attributed to the pass
    (via the entry it just appended to ``dag.rewrites``) instead of
    surfacing as a confusing post-translation failure.
    """
    if config.elide_sorts:
        removed = elide_redundant_sorts(dag)
        if removed:
            dag.record_rewrite(
                f"elide_redundant_sorts x{len(removed)}",
                pass_name="elide_redundant_sorts",
                detail=f"x{len(removed)}",
                nodes=removed,
            )
            _verify_after_pass(dag, config)
    if config.remove_redundant_combines:
        removed = remove_redundant_combines(dag)
        if removed:
            dag.record_rewrite(
                f"remove_redundant_combines x{len(removed)}",
                pass_name="remove_redundant_combines",
                detail=f"x{len(removed)}",
                nodes=removed,
            )
            _verify_after_pass(dag, config)


def _node_label(dag: Dag, node: Lolepop) -> str:
    """``"#3 SORT [k ASC]"``-style name for rewrite-event provenance."""
    try:
        index = dag.topological_order().index(node)
        prefix = f"#{index} "
    except Exception:  # noqa: BLE001 — node mid-splice / cyclic dag
        prefix = ""
    describe = node.describe()
    return f"{prefix}{node.name()}" + (f" [{describe}]" if describe else "")


def _verify_after_pass(dag: Dag, config: EngineConfig) -> None:
    if config.verify_plans != "strict":
        return
    from .verify import verify_dag

    verify_dag(dag, context=f"optimizer pass {dag.rewrites[-1]}")


def remove_redundant_combines(dag: Dag) -> List[str]:
    """Splice out join-mode COMBINE operators with exactly one input;
    returns the labels of the spliced nodes (rewrite-event provenance)."""
    removed: List[str] = []
    for node in list(dag.nodes):
        if (
            isinstance(node, CombineOp)
            and node.mode == "join"
            and len(node.inputs) == 1
        ):
            label = _node_label(dag, node)
            dag.replace(node, node.inputs[0])
            removed.append(label)
    return removed


def elide_redundant_sorts(dag: Dag) -> List[str]:
    """Remove SORT operators whose requirement is a prefix of the buffer's
    ordering at that point of the (topological) execution order; returns
    the labels of the elided sorts (rewrite-event provenance)."""
    ordering_state: Dict[int, Tuple] = {}
    removed: List[str] = []
    for node in dag.topological_order():
        if not isinstance(node, SortOp):
            continue
        root = buffer_root(node)
        if root is None:
            continue
        current = ordering_state.get(id(root), ())
        required = tuple(node.keys)
        satisfied = len(required) <= len(current) and (
            tuple(current[: len(required)]) == required
        )
        if satisfied:
            label = _node_label(dag, node)
            # Consumers inherit the sort's anti-dependencies.
            for other in dag.nodes:
                if node in other.inputs:
                    other.after.extend(node.after)
            dag.replace(node, node.inputs[0])
            removed.append(label)
        else:
            ordering_state[id(root)] = required
    return removed
