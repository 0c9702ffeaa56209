"""LOLEPOP base classes and the DAG container.

A :class:`Lolepop` consumes the outputs of its input operators — each either
a *stream* (list of :class:`~repro.storage.Batch`) or a *buffer*
(:class:`~repro.storage.TupleBuffer`) — and produces one output of either
kind. Buffers are shared: SORT reorders its input buffer **in place** and
returns the same object, which is exactly the materialized-state reuse the
paper is about. Because of that, plans are DAGs with *anti-dependencies*:
an operator that re-sorts a buffer must run after every consumer of the
previous ordering. :class:`Dag` tracks those as ``after`` edges and executes
nodes in a topological order over both data and ordering edges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ExecutionError, PlanError
from ..execution.context import ExecutionContext
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from .properties import PhysProps

if TYPE_CHECKING:
    from ..observability.provenance import RewriteEvent

OpResult = Union[List[Batch], TupleBuffer]


#: The counters a ``node`` span starts with; ``extra`` (operator-specific
#: details: sort mode, merge rounds, ...) rides beside them.
NODE_COUNTERS = (
    "rows_in", "rows_out", "batches_in", "batches_out", "peak_buffer_bytes",
    "spill_bytes_written", "spill_bytes_read", "buffer_reuse_hits",
    "sort_elisions", "bytes_materialized", "peak_partition_bytes",
)


def node_attrs() -> dict:
    """Fresh ``attrs`` of a ``node`` span."""
    attrs: dict = dict.fromkeys(NODE_COUNTERS, 0)
    attrs["extra"] = {}
    return attrs


def _shape_of(value: object) -> Tuple[int, int, int, int]:
    """(rows, batches, buffer bytes, largest partition bytes) of an
    operator input/output value. The largest partition is the unit of
    per-worker memory, so a high value is the memory-side face of skew."""
    if isinstance(value, TupleBuffer):
        partition_peak = max(
            (p.approx_bytes() for p in value.partitions), default=0
        )
        return (
            value.num_rows, value.num_partitions,
            value.approx_bytes(), partition_peak,
        )
    if isinstance(value, (list, tuple)):
        return sum(len(b) for b in value), len(value), 0, 0
    return 0, 0, 0, 0


class Lolepop:
    """Base class for all low-level plan operators.

    Each operator class declares its contract (Table 1's signature plus the
    physical properties it needs and produces) in the class attributes and
    the four contract methods below. EXPLAIN, the static plan verifier
    (:mod:`repro.lolepop.verify`) and the optimizer's sort elision read it
    from the node itself. A class that declares no ``legend`` has no
    contract: :meth:`name` and :meth:`derive` raise
    :class:`~repro.errors.PlanError`.
    """

    #: EXPLAIN's operator name.
    legend: Optional[str] = None
    #: Input kinds ``execute`` accepts ('stream' = list of batches, 'buffer'
    #: = TupleBuffer) and the kind it produces.
    consumes: Tuple[str, ...] = ("stream",)
    produces = "stream"
    #: How many inputs the operator takes (``max_inputs=None``: unbounded).
    min_inputs = 1
    max_inputs: Optional[int] = 1
    #: 'creates' — the output is a fresh TupleBuffer; 'forwards' — the
    #: output is the input buffer object itself; ``None`` — a stream
    #: producer (see :func:`buffer_root`).
    buffer_role: Optional[str] = None
    #: Does ``execute`` mutate its input TupleBuffer in place? Checked
    #: against the class body by analyzer rule ``R2-undeclared-mutation``.
    mutates_input = False
    #: What that mutation changes: 'order' (SORT re-sorts) or 'schema'
    #: (WINDOW appends columns). Drives the verifier's buffer-reuse race
    #: check.
    mutation_effect: Optional[str] = None

    def __init__(self, inputs: Sequence["Lolepop"] = ()):
        self.inputs: List[Lolepop] = list(inputs)
        #: Anti-dependency edges: operators that must run before this one
        #: even though no data flows between them (buffer reordering).
        self.after: List[Lolepop] = []
        #: This node's ``node`` :class:`~repro.execution.trace.Span` once it
        #: executed under ``collect_metrics=True``; ``None`` otherwise.
        self.span = None

    def name(self) -> str:
        """EXPLAIN's operator legend: the class's ``legend``."""
        if self.legend is None:
            raise PlanError(
                f"{type(self).__name__} declares no operator contract: every "
                "LOLEPOP class declares its legend, consumed/produced kinds "
                "and physical properties (requires/derive)"
            )
        return self.legend

    # -- contract: what the verifier checks and propagates -----------------
    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        """Diagnostics for the input properties this operator needs but
        ``ins`` (each input's derived properties) lacks."""
        return []

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        """The physical properties of this operator's output."""
        raise PlanError(f"{self.name()} declares no derive rule")

    def order_sensitive(self) -> bool:
        """Would this node's result change if its shared input buffer were
        reordered between plan construction and this node's execution?"""
        return False

    def reads_full_schema(self) -> bool:
        """Does this node read every column of its input buffer (so an
        unordered column-appending WINDOW would change its output)?"""
        return False

    def describe(self) -> str:
        """One-line parameter summary for explain output."""
        return ""

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        raise NotImplementedError

    def run_after(self, *ops: "Lolepop") -> "Lolepop":
        self.after.extend(ops)
        return self

    def note(self, **extra) -> None:
        """Record operator-specific details (sort mode, merge rounds, ...)
        on this node's span: checked for by the caller (the default path
        builds no arguments), who is on the submitting thread."""
        self.span.attrs["extra"].update(extra)


class SourceOp(Lolepop):
    """DAG source: a thunk producing the input stream (the pipeline below
    the statistics region — scans, filters, joins)."""

    legend = "SOURCE"
    consumes = ()
    produces = "stream"
    min_inputs = max_inputs = 0

    def __init__(
        self,
        thunk: Callable[[], List[Batch]],
        label: str = "source",
        plan=None,
    ):
        super().__init__()
        self._thunk = thunk
        self._label = label
        #: Logical plan this source evaluates, when known — lets EXPLAIN
        #: ANALYZE estimate the source cardinality.
        self.plan = plan

    def describe(self) -> str:
        return self._label

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        return PhysProps("stream", schema=getattr(self.plan, "schema", None))

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        return self._thunk()

    def rebind(self, source: Callable[[object], List[Batch]]) -> None:
        """Point this SOURCE at a new query's pipeline evaluator. Used when
        a cached DAG template is cloned for re-execution: the operator
        parameters are reusable, but the thunk closes over the previous
        runner. Requires :attr:`plan` (set by the translator)."""
        if self.plan is None:
            raise ExecutionError(
                "cannot rebind a SOURCE without its logical plan"
            )
        plan = self.plan
        self._thunk = lambda: source(plan)


def buffer_root(node: Lolepop) -> Optional[Lolepop]:
    """The node whose execution created the buffer ``node`` outputs (buffers
    flow through SORT and WINDOW unchanged), or ``None`` for a stream
    producer."""
    while node.buffer_role == "forwards" and node.inputs:
        node = node.inputs[0]
    return node if node.buffer_role == "creates" else None


class Dag:
    """An executable DAG of LOLEPOPs with one sink."""

    def __init__(self) -> None:
        self.nodes: List[Lolepop] = []
        self.sink: Optional[Lolepop] = None
        #: Rewrite log: which optimizer passes / translator reuse decisions
        #: fired while building this DAG. Entries are
        #: :class:`~repro.observability.provenance.RewriteEvent` records
        #: appended via :meth:`record_rewrite` — never bare strings
        #: (analyzer rule ``R5-stringly-rewrite``).
        self.rewrites: List[RewriteEvent] = []
        #: The statistics-region logical plan this DAG implements, when
        #: known — EXPLAIN ANALYZE uses it for cardinality estimates.
        self.region_plan = None

    def record_rewrite(
        self,
        text: str,
        pass_name: str,
        detail: str = "",
        nodes: Sequence[str] = (),
    ) -> RewriteEvent:
        """Append one structured
        :class:`~repro.observability.provenance.RewriteEvent` to the
        rewrite log and return it. The single sanctioned append path —
        analyzer rule ``R5-stringly-rewrite`` flags direct string appends."""
        from ..observability.provenance import RewriteEvent

        event = RewriteEvent(text, pass_name, detail=detail, nodes=nodes)
        self.rewrites.append(event)
        return event

    def add(self, op: Lolepop) -> Lolepop:
        if op not in self.nodes:
            # Inputs must be registered too (tolerate out-of-order adds).
            for dep in op.inputs:
                self.add(dep)
            self.nodes.append(op)
        return op

    def set_sink(self, op: Lolepop) -> None:
        self.add(op)
        self.sink = op

    def replace(self, old: Lolepop, new: Lolepop) -> None:
        """Splice ``new`` in place of ``old`` everywhere (optimizer passes)."""
        for node in self.nodes:
            node.inputs = [new if i is old else i for i in node.inputs]
            node.after = [new if a is old else a for a in node.after]
        if self.sink is old:
            self.sink = new
        if old in self.nodes:
            self.nodes.remove(old)
        if new not in self.nodes:
            self.add(new)

    # ------------------------------------------------------------------
    def clone(self, rebase: Optional[Callable[[object], object]] = None) -> "Dag":
        """Structural copy for plan-cache reuse: fresh node instances wired
        like the originals, sharing the (read-only) operator parameters.

        Execution mutates node *instances* (``span``, SORT's split
        bookkeeping) but never the parameter lists, so a shallow per-node
        copy gives an independently executable DAG while the cached template
        stays pristine. SOURCE thunks are per-query (they close over the
        runner) and must be rebound by the caller via
        :meth:`SourceOp.rebind`. ``rebase`` maps the logical plan nodes the
        DAG names (:attr:`region_plan`, each SOURCE's plan) onto another
        statement's plan of the same shape.
        """
        import copy

        mapping: Dict[int, Lolepop] = {}
        cloned = Dag()
        for node in self.topological_order():
            twin = copy.copy(node)
            twin.inputs = [mapping[id(dep)] for dep in node.inputs]
            twin.after = [mapping[id(dep)] for dep in node.after]
            twin.span = None
            if rebase is not None and isinstance(twin, SourceOp):
                twin.plan = rebase(twin.plan)
            mapping[id(node)] = twin
            cloned.nodes.append(twin)
        cloned.sink = mapping[id(self.sink)] if self.sink is not None else None
        cloned.rewrites = list(self.rewrites)
        cloned.region_plan = (
            self.region_plan if rebase is None else rebase(self.region_plan)
        )
        return cloned

    def topological_order(self) -> List[Lolepop]:
        order: List[Lolepop] = []
        visiting: Dict[int, int] = {}

        def visit(node: Lolepop) -> None:
            state = visiting.get(id(node), 0)
            if state == 1:
                raise PlanError("cycle in LOLEPOP DAG")
            if state == 2:
                return
            visiting[id(node)] = 1
            for dep in list(node.inputs) + list(node.after):
                visit(dep)
            visiting[id(node)] = 2
            order.append(node)

        if self.sink is None:
            raise PlanError("DAG has no sink")
        visit(self.sink)
        return order

    def execute(self, ctx: ExecutionContext) -> OpResult:
        """Run the DAG; each operator's execution is one or more pipeline
        phases of the scheduler.

        Under ``collect_metrics`` every node runs inside its own ``node``
        span (beneath whichever span is open: a nested region's nodes are
        children of the SOURCE that ran them) whose ``attrs`` count rows and
        batches in and out, buffer bytes and the spill bytes attributed to
        it. The default path pays one check per node.
        """
        results: Dict[int, OpResult] = {}
        trace = ctx.trace if ctx.config.collect_metrics else None
        for node in self.topological_order():
            ctx.next_phase()
            inputs = [results[id(dep)] for dep in node.inputs]
            if trace is None:
                results[id(node)] = node.execute(ctx, inputs)
                continue
            attrs = node_attrs()
            for value in inputs:
                rows, batches, _, _ = _shape_of(value)
                attrs["rows_in"] += rows
                attrs["batches_in"] += batches
            spill_before = ctx.spill_counters()
            with trace.enter("node", node.name(), attrs) as span:
                node.span = span
                result = results[id(node)] = node.execute(ctx, inputs)
            spill_after = ctx.spill_counters()
            for key in ("bytes_written", "bytes_read"):
                attrs["spill_" + key] = spill_after[key] - spill_before[key]
            rows, batches, buffer_bytes, partition_peak = _shape_of(result)
            attrs["rows_out"] = rows
            attrs["batches_out"] = batches
            attrs["bytes_materialized"] = attrs["peak_buffer_bytes"] = buffer_bytes
            attrs["peak_partition_bytes"] = partition_peak
        return results[id(self.sink)]

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """Stable ASCII rendering (used by plan-shape golden tests).

        Each line shows the kinds the node receives and produces (Table 1's
        arrows) and ends with the node's statically derived physical
        properties in braces (partitioning / per-partition ordering /
        known-unique keys) when the verifier can derive any.
        """
        from .verify import derive_properties

        order = self.topological_order()
        ids = {id(node): i for i, node in enumerate(order)}
        derived = derive_properties(self)

        def kind(node: Lolepop) -> str:
            props = derived.get(id(node))
            return props.kind if props is not None else node.produces

        lines = []
        for node in order:
            deps = ",".join(f"#{ids[id(i)]}" for i in node.inputs)
            extra = f" [{node.describe()}]" if node.describe() else ""
            received = "/".join(dict.fromkeys(kind(i) for i in node.inputs))
            arrow = f" ({received or '-'}->{kind(node)})"
            after = (
                "  after " + ",".join(f"#{ids[id(a)]}" for a in node.after)
                if node.after
                else ""
            )
            props = derived.get(id(node))
            note = props.render() if props is not None else ""
            lines.append(
                f"#{ids[id(node)]} {node.name()}{extra}{arrow}"
                + (f" <- {deps}" if deps else "")
                + after
                + (f"  {{{note}}}" if note else "")
            )
        return "\n".join(lines)

    def operator_names(self) -> List[str]:
        return [node.name() for node in self.topological_order()]
