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

After a buffer is built, the operators that read it one hash partition at a
time — SORT, WINDOW, ORDAGG and a SCAN of the buffer (Table 1) — are
*chain steps*. :func:`partition_chains` groups each maximal run of them
over one buffer into a chain, and :func:`run_chain` runs a chain as one
region of one work item per partition: the item loads its partition once
(a spilled one is read from its file once), runs every step on it in
order, and releases it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ExecutionError, PlanError
from ..execution.context import ExecutionContext
from ..execution.trace import Span
from ..storage.batch import Batch
from ..storage.buffer import BufferPartition, Ordering, TupleBuffer
from .properties import PhysProps

if TYPE_CHECKING:
    from ..observability.provenance import RewriteEvent

OpResult = Union[List[Batch], TupleBuffer]


#: The counters a ``node`` span starts with, each written once by the node
#: that measured it; ``extra`` (operator-specific details: sort mode, merge
#: rounds, ...) rides beside them. ``bytes_materialized`` is what the node
#: wrote into a buffer: a creator's buffer as built, the columns a WINDOW
#: appended, 0 for every other node. What a node read are its inputs'
#: ``rows_out`` / ``batches_out`` (the views derive them).
NODE_COUNTERS = (
    "rows_out", "batches_out", "spill_bytes_written", "spill_bytes_read",
    "bytes_materialized",
)


def node_attrs() -> dict:
    """Fresh ``attrs`` of a ``node`` span."""
    attrs: dict = dict.fromkeys(NODE_COUNTERS, 0)
    attrs["extra"] = {}
    return attrs


def _close_spans(
    ctx: ExecutionContext,
    unit: Sequence[Lolepop],
    outputs: Sequence[OpResult],
    spill_before: dict,
) -> None:
    """Fill the counters of one execution unit's ``node`` spans: the unit's
    spill reads count towards its first node, its writes towards its last,
    and each node's output gives its ``rows_out`` / ``batches_out``. A node
    that creates a buffer materialized it as built, before a memory budget
    spilled any of it: what the unit counted as partition input, if any."""
    spill = ctx.spill_counters()
    unit[0].span.attrs["spill_bytes_read"] = spill["bytes_read"] - spill_before["bytes_read"]
    unit[-1].span.attrs["spill_bytes_written"] = (
        spill["bytes_written"] - spill_before["bytes_written"]
    )
    built = spill["partition_input_bytes"] - spill_before["partition_input_bytes"]
    for node, output in zip(unit, outputs):
        attrs = node.span.attrs
        if isinstance(output, TupleBuffer):
            attrs["rows_out"], attrs["batches_out"] = output.num_rows, output.num_partitions
            if node.buffer_role == "creates":
                attrs["bytes_materialized"] = built or output.approx_bytes()
        else:
            attrs["rows_out"] = sum(len(batch) for batch in output)
            attrs["batches_out"] = len(output)


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
    #: What ``execute`` changes of its input TupleBuffer in place, if
    #: anything: 'order' (SORT re-sorts) or 'schema' (WINDOW appends
    #: columns). Drives the verifier's buffer-reuse race check.
    mutation_effect: Optional[str] = None
    #: A chain step (see :func:`run_chain`) runs on every partition holding
    #: at least this many rows; ``None``: the operator is no chain step.
    chain_min_rows: Optional[int] = None
    #: Does the simulated scheduler split this step's measured duration
    #: across threads (the paper's morsel-driven per-partition work)?
    splittable = False

    def __init__(self, inputs: Sequence["Lolepop"] = ()):
        self.inputs: List[Lolepop] = list(inputs)
        #: Anti-dependency edges: operators that must run before this one
        #: even though no data flows between them (buffer reordering).
        self.after: List[Lolepop] = []
        #: This node's ``node`` :class:`~repro.execution.trace.Span` once it
        #: executed under ``collect_trace=True``; ``None`` otherwise.
        self.span: Optional[Span] = None

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

    def chain_step(self, ctx: ExecutionContext, view: "BufferView") -> "ChainStep":
        """This chain step planned for ``view`` (the buffer as the step will
        find it, which the step then updates): the per-partition body, run
        inside the chain's items (``None``: nothing to do, e.g. an elided
        SORT), and the finish, run once after them on the submitting thread
        with the buffer and the body's result per partition (``None`` where
        it did not run); the finish returns the step's output."""
        raise PlanError(f"{self.name()} is no chain step")

    def ends_chain(self) -> bool:
        """Must the chain stop after this step?"""
        return False

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


# ----------------------------------------------------------------------
# Partition chains
# ----------------------------------------------------------------------
#: What :meth:`Lolepop.chain_step` returns: the per-partition body (or
#: ``None``) and the finish.
ChainStep = Tuple[
    Optional[Callable[[BufferPartition], object]],
    Callable[[TupleBuffer, List[object]], OpResult],
]


class BufferView:
    """The schema and per-partition ordering a buffer will have when a
    chain step runs: the steps before it in the chain have not run yet
    when it is planned, so each step reads them here and updates them."""

    __slots__ = ("schema", "ordered_by")

    def __init__(self, buffer: TupleBuffer):
        self.schema = buffer.schema
        self.ordered_by: Ordering = buffer.ordered_by


def chain_step_over_buffer(node: Lolepop) -> Optional[Lolepop]:
    """The buffer root ``node`` reads one partition at a time, if ``node``
    is a chain step; ``None`` otherwise."""
    if node.chain_min_rows is None or not node.inputs:
        return None
    return buffer_root(node.inputs[0])


def partition_chains(order: Sequence[Lolepop]) -> List[List[Lolepop]]:
    """``order`` (a topological order) cut into execution units: each
    maximal run of chain steps over one buffer is one unit, every other
    node a unit of its own.

    A run is consecutive in ``order``, so every input and ``after``
    predecessor of a step is either in its chain or ran before the chain
    started; any other node between two steps (a MERGE reading one ordering
    before a re-sort) ends the chain there, and so does a step that
    :meth:`~Lolepop.ends_chain`. The units follow from the DAG's structure
    alone: a cloned plan-cache template runs the same chains."""
    units: List[List[Lolepop]] = []
    chain_root = None  # of the chain ``units[-1]``, if it is one
    for node in order:
        root = chain_step_over_buffer(node)
        if root is not None and root is chain_root and not units[-1][-1].ends_chain():
            units[-1].append(node)
        else:
            units.append([node])
            chain_root = root
    return units


def run_chain(
    ctx: ExecutionContext,
    steps: Sequence[Lolepop],
    buffer: TupleBuffer,
    keep: bool,
) -> Tuple[List[OpResult], List[float]]:
    """Run ``steps``, a chain over ``buffer``, as one region of one work
    item per partition that any step runs on, and return each step's
    output and seconds.

    Every step is planned first, on the submitting thread, against the
    buffer as the steps before it will leave it (:class:`BufferView`): a
    SORT's elision is decided there. Item ``i`` then pins partition ``i``
    (:meth:`~repro.storage.buffer.BufferPartition.pin`), runs every step's
    body on it in order — checking for cancellation before each — and
    unpins it. ``keep``: a reader after the chain reads the buffer, so a
    spilled partition appends what the steps change to its file. The
    finishes run last, in step order. A step's seconds are its planning,
    its body in every item and its finish."""
    view = BufferView(buffer)
    finishes: List[Callable[[TupleBuffer, List[object]], OpResult]] = []
    seconds: List[float] = []
    work = []  # (step index, its fewest rows, its body) of the steps with a body
    for index, node in enumerate(steps):
        started = time.perf_counter()
        body, finish = node.chain_step(ctx, view)
        finishes.append(finish)
        seconds.append(time.perf_counter() - started)
        if body is not None:
            work.append((index, node.chain_min_rows, body))
    checkpoint = ctx.scheduler.checkpoint

    def item(entry: Tuple[BufferPartition, int]):
        """One partition (and its row count) through every step:
        ``(results, marks)``, the marks timing each step that ran (the load
        and the write-back count towards the first and the last)."""
        partition, rows = entry
        results: List[object] = [None] * len(steps)
        marks: List[List] = []
        start = time.perf_counter()
        partition.pin(keep)
        for index, min_rows, body in work:
            checkpoint()
            if rows >= min_rows:
                results[index] = body(partition)
                end = time.perf_counter()
                marks.append([index, start, end])
                start = end
        partition.unpin()
        if marks:
            marks[-1][2] = time.perf_counter()
        return results, marks

    outcomes: List = []
    if work:
        fewest = min(min_rows for _, min_rows, _ in work)
        items = []
        for partition in buffer.partitions:
            rows = partition.num_rows
            if rows >= fewest:
                items.append((partition, rows))
        names = [(node.legend.lower(), node.splittable) for node in steps]
        outcomes = ctx.parallel_for(
            "+".join(names[index][0] for index, _, _ in work), items, item, steps=names
        )
    for _, marks in outcomes:
        for index, start, end in marks:
            seconds[index] += end - start
    outputs: List[OpResult] = []
    for index, finish in enumerate(finishes):
        started = time.perf_counter()
        outputs.append(finish(buffer, [results[index] for results, _ in outcomes]))
        seconds[index] += time.perf_counter() - started
    return outputs, seconds


class Dag:
    """An executable DAG of LOLEPOPs with one sink."""

    def __init__(self) -> None:
        self.nodes: List[Lolepop] = []
        self.sink: Optional[Lolepop] = None
        #: Rewrite log: which optimizer passes / translator reuse decisions
        #: fired while building this DAG. Entries are
        #: :class:`~repro.observability.provenance.RewriteEvent` records
        #: appended via :meth:`record_rewrite`, never bare strings.
        self.rewrites: List[RewriteEvent] = []
        #: The statistics-region logical plan this DAG implements, when
        #: known — EXPLAIN ANALYZE uses it for cardinality estimates.
        self.region_plan = None
        #: :attr:`nodes` once they are in topological order and the DAG is
        #: done changing: a clone's (see :meth:`clone`). ``None`` while the
        #: DAG is built; :meth:`add` and :meth:`replace` reset it.
        self._order: Optional[List[Lolepop]] = None

    def record_rewrite(
        self,
        text: str,
        pass_name: str,
        detail: str = "",
        nodes: Sequence[str] = (),
    ) -> RewriteEvent:
        """Append one structured
        :class:`~repro.observability.provenance.RewriteEvent` to the
        rewrite log and return it: the one append path."""
        from ..observability.provenance import RewriteEvent

        event = RewriteEvent(text, pass_name, detail=detail, nodes=nodes)
        self.rewrites.append(event)
        return event

    def add(self, op: Lolepop) -> Lolepop:
        if op not in self.nodes:
            self._order = None
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
        self._order = None
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

        Execution mutates node *instances* (``span``) but never the
        parameter lists, so a shallow per-node copy (a bare instance of the
        node's class taking its ``__dict__``) gives an independently
        executable DAG while the cached template stays pristine. The copy
        walks the topological order, which is sorted once per DAG: a clone
        keeps its nodes in that order (:attr:`_order`), so cloning a stored
        template again, or executing a clone, sorts nothing. SOURCE thunks
        are per-query (they close over the runner) and must be rebound by
        the caller via :meth:`SourceOp.rebind`. ``rebase`` maps the logical
        plan nodes the DAG names (:attr:`region_plan`, each SOURCE's plan)
        onto another statement's plan of the same shape.
        """
        mapping: Dict[int, Lolepop] = {}
        cloned = Dag()
        for node in self._order or self.topological_order():
            twin = object.__new__(type(node))
            twin.__dict__.update(node.__dict__)
            twin.inputs = [mapping[id(dep)] for dep in node.inputs]
            twin.after = [mapping[id(dep)] for dep in node.after]
            twin.span = None
            if rebase is not None and isinstance(twin, SourceOp):
                twin.plan = rebase(twin.plan)
            mapping[id(node)] = twin
            cloned.nodes.append(twin)
        cloned.sink = mapping[id(self.sink)] if self.sink is not None else None
        cloned._order = cloned.nodes
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
        """Run the DAG: every node in topological order, each chain of
        partition-local steps (:func:`partition_chains`) as one region
        (:func:`run_chain`); each unit is one or more pipeline phases of the
        scheduler.

        Under ``collect_trace`` every node runs inside its own ``node``
        span (beneath whichever span is open: a nested region's nodes are
        children of the SOURCE that ran them) whose ``attrs`` count rows and
        batches out, the bytes it materialized and the spill bytes
        attributed to it (:func:`_close_spans`). The steps of a chain share
        its region, so their spans divide the chain's interval in proportion
        to each step's seconds, and the chain's spill reads (the items'
        loads) count towards its first step, its writes towards its last.
        The default path pays one check per unit.
        """
        results: Dict[int, OpResult] = {}
        trace = ctx.trace if ctx.config.collect_trace else None
        order = self._order or self.topological_order()
        # Position of the last reader of each buffer (the DAG's caller
        # reads a buffer the sink outputs, after every node).
        last_read: Dict[int, int] = {}
        for position, reader in enumerate(order):
            for dep in reader.inputs:
                if dep.buffer_role is not None:
                    last_read[id(buffer_root(dep))] = position
        last_read[id(buffer_root(self.sink))] = len(order)
        position = 0
        for unit in partition_chains(order):
            position += len(unit)
            ctx.next_phase()
            node = unit[0]
            root = chain_step_over_buffer(node)
            if root is not None:
                buffer = results[id(node.inputs[0])]
                # Does a reader after the chain need what the steps change?
                keep = last_read[id(root)] >= position
                if trace is None:
                    outputs, _ = run_chain(ctx, unit, buffer, keep)
                else:
                    for step in unit:
                        step.span = Span("node", step.name(), attrs=node_attrs())
                    spill_before = ctx.spill_counters()
                    started = time.perf_counter()
                    outputs, seconds = run_chain(ctx, unit, buffer, keep)
                    scale = (time.perf_counter() - started) / (sum(seconds) or 1.0)
                    cursor = started
                    for step, share in zip(unit, seconds):
                        step.span.start = cursor
                        cursor = step.span.end = cursor + share * scale
                        trace.open.children.append(step.span)
                    _close_spans(ctx, unit, outputs, spill_before)
                for step, output in zip(unit, outputs):
                    results[id(step)] = output
                continue
            inputs = [results[id(dep)] for dep in node.inputs]
            if trace is None:
                results[id(node)] = node.execute(ctx, inputs)
                continue
            spill_before = ctx.spill_counters()
            with trace.enter("node", node.name(), node_attrs()) as span:
                node.span = span
                result = results[id(node)] = node.execute(ctx, inputs)
            _close_spans(ctx, unit, [result], spill_before)
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
