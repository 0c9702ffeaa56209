"""Static plan verifier: check a LOLEPOP DAG against operator contracts
*before* executing it.

The verifier never runs a kernel and never touches data. It walks the DAG
in :meth:`Dag.topological_order` — which is also the execution order of
both schedulers, so the propagated buffer state at each node is exactly
the state the node will observe at runtime — and reports three families of
:class:`Diagnostic`:

**Structural** (``no-sink`` / ``cycle`` / ``unreachable`` / ``arity`` /
``kind-mismatch`` / ``no-contract`` / ``unrebindable-source``): the DAG is
well-formed, acyclic over data + ``after`` edges, single-sink, every node's
class declares a contract with compatible input kinds, and (for plan-cache
templates) every SOURCE can be rebound to a new query.

**Physical properties** (``property``): each operator's requirements on
its input's partitioning / per-partition ordering / uniqueness / schema
are met by the properties derived upstream — e.g. ORDAGG over a buffer not
sorted on its group keys, MERGE over partitions not sorted on the merge
keys, COMBINE(join) over an input not unique on the group key. Buffers are
mutated in place (SORT reorders, WINDOW appends columns), so the verifier
tracks the *current* state per buffer root: a consumer placed after a
re-sort in the topological order is checked against the re-sorted state.

**Buffer-reuse races** (``race``): for every in-place mutator of a shared
buffer, every consumer whose result depends on the aspect being mutated
(ordering for SORT, full-schema reads for WINDOW's appended columns) must
be ordered with respect to the mutator via data or ``after`` edges. A
missing anti-dependency edge — the hardest class of parallel-mode bug —
becomes a deterministic lint finding instead of a nondeterministic wrong
result.

Entry points: :func:`check_dag` (collect diagnostics), :func:`verify_dag`
(raise :class:`~repro.errors.PlanVerificationError`), and
:func:`derive_properties` (best-effort per-node properties for EXPLAIN /
EXPLAIN ANALYZE).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import PlanError, PlanVerificationError
from .base import Dag, Lolepop, SourceOp, buffer_root
from .properties import PhysProps


class Diagnostic:
    """One verifier finding, attributed to a node when possible."""

    __slots__ = ("code", "node", "message")

    def __init__(
        self, code: str, node: Optional[Lolepop], message: str
    ) -> None:
        #: Stable machine-readable family: 'no-sink', 'cycle',
        #: 'unreachable', 'no-contract', 'arity', 'kind-mismatch',
        #: 'property', 'race', 'unrebindable-source'.
        self.code = code
        self.node = node
        self.message = message

    def render(self, ids: Dict[int, int]) -> str:
        if self.node is None:
            return f"[{self.code}] {self.message}"
        index = ids.get(id(self.node))
        tag = f"#{index} " if index is not None else ""
        try:
            name = self.node.name()
        except PlanError:
            name = type(self.node).__name__
        return f"[{self.code}] {tag}{name}: {self.message}"

    def __repr__(self) -> str:
        return f"Diagnostic({self.code!r}, {self.message!r})"


def check_dag(
    dag: Dag, require_rebindable: bool = False
) -> Tuple[List[Diagnostic], Dict[int, PhysProps]]:
    """Verify ``dag``; return ``(diagnostics, properties)`` where
    ``properties`` maps ``id(node)`` to the node's derived
    :class:`~repro.lolepop.properties.PhysProps` (the state of its output
    at the moment the node executes).

    Never raises for an invalid plan — invalidity is reported as
    diagnostics — and never executes any operator.
    """
    diagnostics: List[Diagnostic] = []
    props: Dict[int, PhysProps] = {}

    if dag.sink is None:
        diagnostics.append(Diagnostic("no-sink", None, "DAG has no sink"))
        return diagnostics, props
    try:
        order = dag.topological_order()
    except PlanError as exc:
        diagnostics.append(
            Diagnostic("cycle", None, f"not a DAG: {exc}")
        )
        return diagnostics, props

    reachable = {id(node) for node in order}
    for node in dag.nodes:
        if id(node) not in reachable:
            diagnostics.append(
                Diagnostic(
                    "unreachable",
                    node,
                    "node is registered in the DAG but not reachable from "
                    "the sink (dead operator left behind by a rewrite?)",
                )
            )

    # A class without a legend declares no contract: report it once, and
    # give its output only the kind its class names.
    contractless: Set[int] = set()
    for node in order:
        try:
            node.name()
        except PlanError as exc:
            contractless.add(id(node))
            diagnostics.append(Diagnostic("no-contract", node, str(exc)))

    # ------------------------------------------------------------------
    # Property propagation in execution order, tracking the current state
    # of every shared buffer (its root's latest derived properties).
    # ------------------------------------------------------------------
    root_of = {id(node): buffer_root(node) for node in order}
    root_state: Dict[int, PhysProps] = {}

    for node in order:
        if id(node) in contractless:
            props[id(node)] = PhysProps(node.produces)
            continue

        count = len(node.inputs)
        low, high = node.min_inputs, node.max_inputs
        if count < low or (high is not None and count > high):
            expected = (
                str(low)
                if low == high
                else f"{low}+"
                if high is None
                else f"{low}..{high}"
            )
            diagnostics.append(
                Diagnostic(
                    "arity",
                    node,
                    f"{node.name()} takes {expected} input(s), got {count}",
                )
            )

        ins: List[PhysProps] = []
        for dep in node.inputs:
            dep_props = props.get(id(dep))
            if dep_props is None:  # dangling input, not part of the DAG
                diagnostics.append(
                    Diagnostic(
                        "unreachable",
                        node,
                        "input operator was never produced by this DAG",
                    )
                )
                dep_props = PhysProps("stream")
            if node.consumes and dep_props.kind not in node.consumes:
                diagnostics.append(
                    Diagnostic(
                        "kind-mismatch",
                        node,
                        f"{node.name()} consumes "
                        f"{'/'.join(node.consumes)} but its input "
                        f"produces a {dep_props.kind}",
                    )
                )
            if dep_props.kind == "buffer":
                root = root_of.get(id(dep))
                if root is not None and id(root) in root_state:
                    dep_props = root_state[id(root)]
            ins.append(dep_props)

        for message in node.requires(ins):
            diagnostics.append(Diagnostic("property", node, message))
        derived = node.derive(ins)
        props[id(node)] = derived
        if derived.kind == "buffer":
            root = root_of.get(id(node))
            if root is not None:
                root_state[id(root)] = derived

    # ------------------------------------------------------------------
    # Buffer-reuse races: every (in-place mutator, affected consumer) pair
    # sharing a buffer must be ordered via data + after edges.
    # ------------------------------------------------------------------
    ancestors: Dict[int, Set[int]] = {}
    for node in order:
        deps: Set[int] = set()
        for dep in list(node.inputs) + list(node.after):
            deps.add(id(dep))
            deps |= ancestors.get(id(dep), set())
        ancestors[id(node)] = deps

    consumers: Dict[int, List[Lolepop]] = {}
    mutators: Dict[int, List[Lolepop]] = {}
    for node in order:
        if id(node) in contractless:
            continue
        seen_roots: Set[int] = set()
        for dep in node.inputs:
            dep_props = props.get(id(dep))
            if dep_props is None or dep_props.kind != "buffer":
                continue
            root = root_of.get(id(dep))
            if root is None or id(root) in seen_roots:
                continue
            seen_roots.add(id(root))
            consumers.setdefault(id(root), []).append(node)
            if node.mutation_effect is not None:
                mutators.setdefault(id(root), []).append(node)

    ids = {id(node): i for i, node in enumerate(order)}
    for root_id, muts in mutators.items():
        for mutator in muts:
            effect = mutator.mutation_effect
            for consumer in consumers.get(root_id, []):
                if consumer is mutator:
                    continue
                if effect == "order":
                    affected = consumer.order_sensitive()
                elif effect == "schema":
                    affected = consumer.reads_full_schema()
                else:
                    affected = False
                if not affected:
                    continue
                ordered = (
                    id(mutator) in ancestors[id(consumer)]
                    or id(consumer) in ancestors[id(mutator)]
                )
                if not ordered:
                    diagnostics.append(
                        Diagnostic(
                            "race",
                            consumer,
                            f"reads a shared buffer that "
                            f"#{ids[id(mutator)]} "
                            f"{mutator.name()} mutates in "
                            f"place ({effect}), but no data/after edge "
                            f"orders the two — add an anti-dependency "
                            f"edge (run_after)",
                        )
                    )

    # ------------------------------------------------------------------
    # Cache-template rebindability: a cloned template re-points each
    # SOURCE at the new query via SourceOp.rebind, which needs the
    # logical plan the translator attached.
    # ------------------------------------------------------------------
    if require_rebindable:
        for node in order:
            if isinstance(node, SourceOp) and node.plan is None:
                diagnostics.append(
                    Diagnostic(
                        "unrebindable-source",
                        node,
                        "SOURCE has no logical plan attached; a cached "
                        "template cloned from this DAG could never be "
                        "rebound to a new query",
                    )
                )

    return diagnostics, props


def verify_dag(
    dag: Dag, require_rebindable: bool = False, context: str = ""
) -> Dict[int, PhysProps]:
    """Run :func:`check_dag` and raise
    :class:`~repro.errors.PlanVerificationError` listing every finding if
    the plan is invalid; return the derived properties otherwise."""
    diagnostics, props = check_dag(dag, require_rebindable=require_rebindable)
    if diagnostics:
        try:
            ids = {id(n): i for i, n in enumerate(dag.topological_order())}
        except PlanError:
            ids = {id(n): i for i, n in enumerate(dag.nodes)}
        where = f" ({context})" if context else ""
        lines = "\n".join("  " + d.render(ids) for d in diagnostics)
        try:  # flight-recorder breadcrumb (lazy import: no cycle, no cost
            from ..observability.telemetry import GLOBAL_TELEMETRY  # when off)

            GLOBAL_TELEMETRY.event(
                "verifier.diagnostic",
                context=context or "-",
                count=len(diagnostics),
                codes=sorted({d.code for d in diagnostics}),
            )
        except Exception:  # noqa: BLE001 — telemetry never masks the error
            pass
        raise PlanVerificationError(
            f"plan verification failed{where}: "
            f"{len(diagnostics)} diagnostic(s)\n{lines}",
            diagnostics,
        )
    return props


def derive_properties(dag: Dag) -> Dict[int, PhysProps]:
    """Best-effort per-node properties for EXPLAIN rendering: never raises,
    returns an empty mapping when the DAG cannot be analyzed."""
    try:
        _, props = check_dag(dag)
        return props
    except Exception:
        return {}
