"""Physical-property contracts for LOLEPOPs — the plan verifier's type
system.

Every operator of Table 1 (plus SOURCE) registers an
:class:`OperatorContract` here: what kind of value it consumes and produces
(*stream* of batches vs. materialized *buffer*), which physical properties
of its input it **requires** (``PartitionedOn``, ``SortedPerPartition``,
``UniqueOn``, column existence), which properties its output **derives**,
and whether it mutates its input buffer in place. The registry is the
single source of truth shared by:

- :mod:`repro.lolepop.verify` — the static analysis pass that propagates
  :class:`PhysProps` through a DAG and reports contract violations before
  execution;
- ``Lolepop.name()`` — EXPLAIN's operator legend, so a new operator cannot
  ship without a declared contract (:func:`operator_name` raises for
  unregistered classes, and :func:`assert_all_registered` runs at package
  import time).

The property lattice is deliberately three-valued: every property is either
known-exactly or ``None`` (= unknown), and **unknown never produces a
diagnostic** — the verifier's zero-false-positive guarantee on hand-built
DAGs rests on that.

Property encodings:

- ``partitioned_by``: ``None`` = round-robin / unknown clustering (rows of
  one key may span partitions), ``()`` = a single co-located partition,
  ``(k, ...)`` = hash-clustered on those keys. The lattice order is
  ``keys ⊆ keys' ⇒ PartitionedOn(keys) ⊑ PartitionedOn(keys')``: grouping
  stays partition-local whenever the partition keys are a subset of the
  group keys (paper §3.3).
- ``ordered_by``: the exact per-partition ordering as ``(column, desc)``
  pairs; a requirement is met when it is a prefix (SORT's runtime elision
  uses the same rule via ``TupleBuffer.ordering_satisfies``).
- ``unique_on``: a set of key-sets the value is known unique on. At most
  one row per ``S`` implies at most one row per any superset of ``S``, so
  a requirement ``UniqueOn(keys)`` is met when some known key-set ``S``
  satisfies ``S ⊆ keys``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..errors import PlanError
from ..expr.nodes import ColumnRef, Expr
from ..types import Field, Schema
from .base import Lolepop, SourceOp
from .combine_op import CombineOp
from .hashagg_op import HashAggOp
from .merge_op import MergeOp
from .ordagg_op import OrdAggOp
from .partition_op import PartitionOp
from .scan_op import ScanOp
from .sort_op import SortOp
from .window_op import WindowOp

#: One ``(column name, descending)`` sort key.
OrderKey = Tuple[str, bool]

#: Functions whose ORDAGG task needs the value order key right after the
#: group-key prefix (mirrors translate._ORDERED_FUNCS plus folded DISTINCT).
_VALUE_ORDERED_FUNCS = ("percentile_disc", "percentile_cont", "mode")


class PhysProps:
    """Statically derived physical properties of one operator's output.

    ``None`` always means *unknown* (checks are skipped), never *absent*.
    """

    __slots__ = ("kind", "schema", "partitioned_by", "ordered_by", "unique_on")

    def __init__(
        self,
        kind: str,
        schema: Optional[Schema] = None,
        partitioned_by: Optional[Tuple[str, ...]] = None,
        ordered_by: Sequence[OrderKey] = (),
        unique_on: Optional[Iterable[Iterable[str]]] = None,
    ) -> None:
        #: 'stream' (list of batches) or 'buffer' (TupleBuffer).
        self.kind = kind
        self.schema = schema
        self.partitioned_by = (
            tuple(partitioned_by) if partitioned_by is not None else None
        )
        self.ordered_by: Tuple[OrderKey, ...] = tuple(
            (name, bool(desc)) for name, desc in ordered_by
        )
        self.unique_on: Optional[FrozenSet[FrozenSet[str]]] = (
            None
            if unique_on is None
            else frozenset(frozenset(s) for s in unique_on)
        )

    # ------------------------------------------------------------------
    @property
    def columns(self) -> Optional[FrozenSet[str]]:
        if self.schema is None:
            return None
        return frozenset(name.lower() for name in self.schema.names())

    def ordering_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.ordered_by)

    def ordering_satisfies(self, required: Sequence[OrderKey]) -> bool:
        """Prefix rule, identical to ``TupleBuffer.ordering_satisfies``."""
        req = tuple((name, bool(desc)) for name, desc in required)
        return len(req) <= len(self.ordered_by) and (
            self.ordered_by[: len(req)] == req
        )

    def unique_implies(self, keys: Sequence[str]) -> Optional[bool]:
        """Does known uniqueness imply at most one row per ``keys``?
        ``None`` when nothing is known about uniqueness."""
        if self.unique_on is None:
            return None
        target = frozenset(keys)
        return any(s <= target for s in self.unique_on)

    def grouping_is_partition_local(self, keys: Sequence[str]) -> Optional[bool]:
        """Is every group of ``keys`` contained in one partition?"""
        if self.partitioned_by is None:
            return False
        return set(self.partitioned_by) <= set(keys) or not self.partitioned_by

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Compact per-node suffix for EXPLAIN / EXPLAIN ANALYZE."""
        parts: List[str] = []
        if self.kind == "buffer":
            if self.partitioned_by is None:
                parts.append("part=rr")
            elif self.partitioned_by:
                parts.append("part=" + ",".join(self.partitioned_by))
            else:
                parts.append("part=1")
            if self.ordered_by:
                parts.append(
                    "ord="
                    + ",".join(
                        ("-" if desc else "") + name
                        for name, desc in self.ordered_by
                    )
                )
        if self.unique_on:
            best = min(self.unique_on, key=lambda s: (len(s), sorted(s)))
            parts.append("uniq=(" + ",".join(sorted(best)) + ")")
        return " ".join(parts)

    def __repr__(self) -> str:  # debugging aid only
        return f"PhysProps({self.kind}, {self.render() or 'unknown'})"


class OperatorContract:
    """The declared interface of one LOLEPOP class."""

    __slots__ = (
        "name",
        "op",
        "consumes",
        "produces",
        "min_inputs",
        "max_inputs",
        "mutates_input",
        "buffer_role",
        "mutation_effect",
        "requires",
        "derive",
        "order_sensitive",
        "reads_full_schema",
    )

    def __init__(
        self,
        name: str,
        op: Type[Lolepop],
        consumes: Tuple[str, ...],
        produces: str,
        min_inputs: int,
        max_inputs: Optional[int],
        # ``Any`` for the node parameter so each rule function can take its
        # concrete operator class (contravariance would otherwise reject
        # e.g. ``_sort_requires(node: SortOp, ...)``).
        requires: Callable[[Any, Sequence[Optional[PhysProps]]], List[str]],
        derive: Callable[[Any, Sequence[Optional[PhysProps]]], PhysProps],
        mutates_input: bool = False,
        buffer_role: Optional[str] = None,
        mutation_effect: Optional[str] = None,
        order_sensitive: Callable[[Lolepop], bool] = lambda node: False,
        reads_full_schema: Callable[[Lolepop], bool] = lambda node: False,
    ) -> None:
        self.name = name
        self.op = op
        #: Input kinds the operator's ``execute`` accepts.
        self.consumes = consumes
        self.produces = produces
        self.min_inputs = min_inputs
        self.max_inputs = max_inputs
        #: Declared in-place mutation of the input buffer; must agree with
        #: the class's ``mutates_input`` attribute (checked at registration
        #: and by analyzer rule ``R2-undeclared-mutation``).
        self.mutates_input = mutates_input
        #: 'creates' — the output is a fresh TupleBuffer (PARTITION /
        #: COMBINE / MERGE); 'forwards' — the output is the *same* buffer
        #: object as the input (SORT / WINDOW); ``None`` — stream producer.
        self.buffer_role = buffer_role
        #: What an in-place mutation changes: 'order' (SORT, MERGE's
        #: compaction) or 'schema' (WINDOW appends columns). Drives the
        #: buffer-reuse race check in :mod:`repro.lolepop.verify`.
        self.mutation_effect = mutation_effect
        self.requires = requires
        self.derive = derive
        #: Would this node's result change if the shared buffer were
        #: reordered between plan construction and this node's execution?
        self.order_sensitive = order_sensitive
        #: Does this node read every column of its input buffer (so an
        #: unordered column-appending WINDOW would change its output)?
        self.reads_full_schema = reads_full_schema


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[Type[Lolepop], OperatorContract] = {}


def _register(contract: OperatorContract) -> OperatorContract:
    declared = contract.op.__dict__.get(
        "mutates_input", Lolepop.mutates_input
    )
    if bool(declared) != contract.mutates_input:
        raise PlanError(
            f"contract for {contract.op.__name__} declares "
            f"mutates_input={contract.mutates_input} but the class says "
            f"{declared}"
        )
    _REGISTRY[contract.op] = contract
    return contract


def contract_of(op: object) -> OperatorContract:
    """The registered contract for an operator instance or class; raises
    :class:`~repro.errors.PlanError` for unregistered operator classes so a
    new LOLEPOP cannot ship without declaring one."""
    cls = op if isinstance(op, type) else type(op)
    for base in cls.__mro__:
        contract = _REGISTRY.get(base)
        if contract is not None:
            return contract
    raise PlanError(
        f"no operator contract registered for {cls.__name__}; add one to "
        "repro.lolepop.properties (every LOLEPOP must declare its "
        "consumed/produced kinds and physical properties)"
    )


def operator_name(cls: Type[Lolepop]) -> str:
    """EXPLAIN's operator legend — derived from the contract registry."""
    return contract_of(cls).name


def registered_contracts() -> List[OperatorContract]:
    """All contracts, in Table-1 registration order (docs + lint hook)."""
    return list(_REGISTRY.values())


def assert_all_registered() -> None:
    """Every currently defined :class:`Lolepop` subclass must resolve to a
    contract. Called at ``repro.lolepop`` import time."""

    def walk(cls: Type[Lolepop]) -> None:
        for sub in cls.__subclasses__():
            contract_of(sub)
            walk(sub)

    walk(Lolepop)


# ----------------------------------------------------------------------
# Shared helpers for requires/derive rules
# ----------------------------------------------------------------------
def expr_column_refs(expr: object) -> FrozenSet[str]:
    """All column names referenced anywhere inside an expression tree."""
    out: set = set()

    def visit(node: object) -> None:
        if isinstance(node, ColumnRef):
            out.add(node.name)
            return
        if isinstance(node, Expr):
            for owner in type(node).__mro__:
                for slot in getattr(owner, "__slots__", ()):
                    visit(getattr(node, slot, None))
        elif isinstance(node, (list, tuple)):
            for item in node:
                visit(item)

    visit(expr)
    return frozenset(out)


def _missing_columns(
    props: Optional[PhysProps], names: Sequence[str], what: str
) -> List[str]:
    """Diagnostics for referenced columns absent from a *known* schema."""
    if props is None or props.columns is None:
        return []
    missing = sorted(set(n.lower() for n in names) - props.columns)
    if not missing:
        return []
    return [f"{what} references missing column(s) {', '.join(missing)}"]


def _first(ins: Sequence[Optional[PhysProps]]) -> Optional[PhysProps]:
    return ins[0] if ins else None


def _unknown(kind: str) -> PhysProps:
    return PhysProps(kind)


# ----------------------------------------------------------------------
# SOURCE
# ----------------------------------------------------------------------
def _source_requires(node: SourceOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    return []


def _source_derive(node: SourceOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    plan = getattr(node, "plan", None)
    schema = getattr(plan, "schema", None) if plan is not None else None
    return PhysProps("stream", schema=schema)


# ----------------------------------------------------------------------
# PARTITION: stream -> buffer hash-clustered on the keys
# ----------------------------------------------------------------------
def _partition_requires(node: PartitionOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    return _missing_columns(_first(ins), node.keys, "partition key")


def _partition_derive(node: PartitionOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    source = _first(ins)
    if node.keys:
        partitioned_by: Optional[Tuple[str, ...]] = tuple(node.keys)
    elif node.num_partitions == 1:
        partitioned_by = ()  # single co-located partition
    else:
        partitioned_by = None  # round-robin scatter
    return PhysProps(
        "buffer",
        schema=source.schema if source is not None else None,
        partitioned_by=partitioned_by,
        ordered_by=(),
        unique_on=source.unique_on if source is not None else None,
    )


# ----------------------------------------------------------------------
# SORT: reorders the buffer in place, per partition
# ----------------------------------------------------------------------
def _sort_requires(node: SortOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    return _missing_columns(
        _first(ins), [name for name, _ in node.keys], "sort key"
    )


def _sort_derive(node: SortOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    source = _first(ins)
    if source is None or source.kind != "buffer":
        return PhysProps("buffer", ordered_by=tuple(node.keys))
    return PhysProps(
        "buffer",
        schema=source.schema,
        partitioned_by=source.partitioned_by,
        ordered_by=tuple(node.keys),
        unique_on=source.unique_on,
    )


# ----------------------------------------------------------------------
# MERGE: sorted partitions -> one globally ordered partition
# ----------------------------------------------------------------------
def _merge_requires(node: MergeOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    source = _first(ins)
    problems = _missing_columns(
        source, [name for name, _ in node.keys], "merge key"
    )
    if source is not None and source.kind == "buffer":
        if not source.ordering_satisfies(node.keys):
            want = ",".join(
                ("-" if d else "") + n for n, d in node.keys
            )
            have = ",".join(
                ("-" if d else "") + n for n, d in source.ordered_by
            ) or "(unsorted)"
            problems.append(
                f"MERGE requires partitions sorted on ({want}) as a "
                f"prefix, but the buffer is ordered on ({have})"
            )
    return problems


def _merge_derive(node: MergeOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    source = _first(ins)
    return PhysProps(
        "buffer",
        schema=source.schema if source is not None else None,
        partitioned_by=(),  # one co-located partition
        ordered_by=tuple(node.keys),
        unique_on=source.unique_on if source is not None else None,
    )


# ----------------------------------------------------------------------
# SCAN: buffer (or stream) -> stream, with optional projection/limit
# ----------------------------------------------------------------------
def _scan_requires(node: ScanOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    if node.project is None:
        return []
    refs: set = set()
    for _, expr in node.project:
        refs |= expr_column_refs(expr)
    return _missing_columns(_first(ins), sorted(refs), "SCAN projection")


def _scan_derive(node: ScanOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    source = _first(ins)
    if node.project is None:
        schema = source.schema if source is not None else None
        passthrough: Optional[FrozenSet[str]] = None  # everything survives
    else:
        schema = node.project_schema
        if schema is None and source is not None and source.schema is not None:
            try:
                from ..expr.eval import infer_dtype

                schema = Schema(
                    Field(name, infer_dtype(expr, source.schema))
                    for name, expr in node.project
                )
            except Exception:
                schema = None
        passthrough = frozenset(
            name.lower()
            for name, expr in node.project
            if isinstance(expr, ColumnRef) and expr.name.lower() == name.lower()
        )
    unique_on = source.unique_on if source is not None else None
    if unique_on is not None and passthrough is not None:
        unique_on = frozenset(s for s in unique_on if s <= passthrough)
    return PhysProps("stream", schema=schema, unique_on=unique_on)


# ----------------------------------------------------------------------
# ORDAGG: buffer sorted on (group keys..., value order) -> unique stream
# ----------------------------------------------------------------------
def _ordagg_requires(node: OrdAggOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    source = _first(ins)
    names = list(node.key_names) + [
        t.arg for t in node.tasks if t.arg is not None
    ]
    problems = _missing_columns(source, names, "ORDAGG")
    if source is None or source.kind != "buffer":
        return problems
    keys = [name.lower() for name in node.key_names]
    if not source.grouping_is_partition_local(keys):
        part = (
            "round-robin"
            if source.partitioned_by is None
            else ",".join(source.partitioned_by)
        )
        problems.append(
            f"ORDAGG groups by ({','.join(keys) or 'ALL'}) but the buffer "
            f"is partitioned on ({part}); key ranges would span partitions"
        )
    prefix = [n.lower() for n in source.ordering_names()[: len(keys)]]
    if sorted(prefix) != sorted(keys):
        have = ",".join(source.ordering_names()) or "(unsorted)"
        problems.append(
            f"ORDAGG requires the buffer sorted on its group keys "
            f"({','.join(keys) or 'none'}) as a prefix, but it is ordered "
            f"on ({have})"
        )
    else:
        for task in node.tasks:
            needs_value_order = task.distinct or task.func in _VALUE_ORDERED_FUNCS
            if not needs_value_order or task.arg is None:
                continue
            names_after = [
                n.lower() for n in source.ordering_names()[len(keys) :]
            ]
            if not names_after or names_after[0] != task.arg.lower():
                problems.append(
                    f"ORDAGG task {task.func}({task.arg}) needs the value "
                    f"order key '{task.arg}' right after the group-key "
                    f"prefix, but the buffer is ordered on "
                    f"({','.join(source.ordering_names())})"
                )
    return problems


def _ordagg_derive(node: OrdAggOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    source = _first(ins)
    schema = None
    if source is not None and source.schema is not None:
        try:
            schema = node.output_schema(source.schema)
        except Exception:
            schema = None
    return PhysProps(
        "stream", schema=schema, unique_on=[list(node.key_names)]
    )


# ----------------------------------------------------------------------
# HASHAGG: stream -> unique stream (two-phase scatter keeps global
# uniqueness: partitions are disjoint by key hash)
# ----------------------------------------------------------------------
def _hashagg_requires(node: HashAggOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    names = list(node.key_names) + [
        t.arg for t in node.tasks if t.arg is not None
    ]
    return _missing_columns(_first(ins), names, "HASHAGG")


def _hashagg_derive(node: HashAggOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    source = _first(ins)
    schema = None
    if source is not None and source.schema is not None:
        try:
            schema = node.output_schema(source.schema)
        except Exception:
            schema = None
    return PhysProps(
        "stream", schema=schema, unique_on=[list(node.key_names)]
    )


# ----------------------------------------------------------------------
# WINDOW: buffer sorted on (partition keys..., order keys...) -> the same
# buffer with the call columns appended
# ----------------------------------------------------------------------
def _window_spec(node: WindowOp) -> Tuple[List[str], List[OrderKey]]:
    first = node.calls[0]
    part_names = [ref.name for ref in first.partition_by]
    order_keys = [(ref.name, bool(desc)) for ref, desc in first.order_by]
    return part_names, order_keys


def _window_requires(node: WindowOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    source = _first(ins)
    part_names, order_keys = _window_spec(node)
    problems = _missing_columns(
        source, part_names + [name for name, _ in order_keys], "WINDOW"
    )
    if source is None or source.kind != "buffer":
        return problems
    if not source.grouping_is_partition_local(part_names):
        part = (
            "round-robin"
            if source.partitioned_by is None
            else ",".join(source.partitioned_by)
        )
        problems.append(
            f"WINDOW partitions by ({','.join(part_names) or 'ALL'}) but "
            f"the buffer is partitioned on ({part})"
        )
    # Partition-key segment: any permutation keeps frames contiguous;
    # order-key segment: exact (name, desc) match, right after it.
    np_ = len(part_names)
    have = tuple((n.lower(), d) for n, d in source.ordered_by)
    wanted_part = sorted(n.lower() for n in part_names)
    prefix_ok = sorted(n for n, _ in have[:np_]) == wanted_part
    wanted_order = tuple((n.lower(), d) for n, d in order_keys)
    order_ok = have[np_ : np_ + len(order_keys)] == wanted_order
    if not (prefix_ok and order_ok and len(have) >= np_ + len(order_keys)):
        want = part_names + [
            ("-" if d else "") + n for n, d in order_keys
        ]
        got = ",".join(("-" if d else "") + n for n, d in have) or "(unsorted)"
        problems.append(
            f"WINDOW requires the buffer sorted on ({','.join(want)}), "
            f"but it is ordered on ({got})"
        )
    return problems


def _window_derive(node: WindowOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    source = _first(ins)
    if source is None or source.kind != "buffer":
        return _unknown("buffer")
    schema = None
    if source.schema is not None:
        try:
            from ..expr.eval import infer_dtype

            fields = list(source.schema.fields)
            for call in node.calls:
                arg_types = [infer_dtype(a, source.schema) for a in call.args]
                fields.append(Field(call.name, call.spec.result_type(arg_types)))
            partial = Schema(fields)
            for name, expr in node.post_items:
                fields.append(Field(name, infer_dtype(expr, partial)))
                partial = Schema(fields)
            schema = partial
        except Exception:
            schema = None
    return PhysProps(
        "buffer",
        schema=schema,
        partitioned_by=source.partitioned_by,
        ordered_by=source.ordered_by,  # append_columns preserves the order
        unique_on=source.unique_on,
    )


# ----------------------------------------------------------------------
# COMBINE: unique producers -> one joined/unioned buffer
# ----------------------------------------------------------------------
def _combine_requires(node: CombineOp, ins: Sequence[Optional[PhysProps]]) -> List[str]:
    problems: List[str] = []
    if node.mode == "join":
        keys = [name.lower() for name in node.key_names]
        for index, source in enumerate(ins):
            problems += _missing_columns(
                source, keys, f"COMBINE input {index}"
            )
            if source is None:
                continue
            if source.unique_implies(keys) is False:
                known = " | ".join(
                    "(" + ",".join(sorted(s)) + ")"
                    for s in sorted(source.unique_on or (), key=sorted)
                ) or "nothing"
                problems.append(
                    f"COMBINE(join) input {index} is not unique on "
                    f"({','.join(keys) or 'ALL'}); known unique keys: {known}"
                )
    elif node.union_keys is not None:
        for index, source in enumerate(ins):
            if index >= len(node.union_keys):
                break
            keys = [name.lower() for name in node.union_keys[index]]
            problems += _missing_columns(
                source, keys, f"COMBINE input {index}"
            )
            if source is not None and source.unique_implies(keys) is False:
                problems.append(
                    f"COMBINE(union) input {index} is not unique on its "
                    f"grouping set ({','.join(keys) or 'ALL'})"
                )
    return problems


def _combine_derive(node: CombineOp, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
    schema = None
    unique: Optional[List[List[str]]] = None
    if node.mode == "join":
        unique = [list(node.key_names)]
        schemas = [
            p.schema for p in ins if p is not None and p.schema is not None
        ]
        if schemas and len(schemas) == len(ins):
            try:
                keys = list(node.key_names)
                fields = [schemas[0][name] for name in keys]
                taken = {name.lower() for name in keys}
                for source_schema in schemas:
                    for field in source_schema:
                        if field.name.lower() not in taken:
                            taken.add(field.name.lower())
                            fields.append(field)
                schema = Schema(fields)
            except Exception:
                schema = None
    return PhysProps(
        "buffer",
        schema=schema,
        partitioned_by=(),
        ordered_by=(),
        unique_on=unique,
    )


# ----------------------------------------------------------------------
# Contract table (mirrors Table 1 of the paper; docs/plan_verifier.md
# renders the same information as prose)
# ----------------------------------------------------------------------
_register(
    OperatorContract(
        name="SOURCE",
        op=SourceOp,
        consumes=(),
        produces="stream",
        min_inputs=0,
        max_inputs=0,
        requires=_source_requires,
        derive=_source_derive,
    )
)
_register(
    OperatorContract(
        name="PARTITION",
        op=PartitionOp,
        consumes=("stream",),
        produces="buffer",
        min_inputs=1,
        max_inputs=1,
        requires=_partition_requires,
        derive=_partition_derive,
        buffer_role="creates",
        reads_full_schema=lambda node: True,
    )
)
_register(
    OperatorContract(
        name="SORT",
        op=SortOp,
        consumes=("buffer",),
        produces="buffer",
        min_inputs=1,
        max_inputs=1,
        requires=_sort_requires,
        derive=_sort_derive,
        mutates_input=True,
        buffer_role="forwards",
        mutation_effect="order",
        # Runtime sort elision reads the buffer's current ordering, so an
        # unordered peer re-sort changes what this SORT does.
        order_sensitive=lambda node: True,
        reads_full_schema=lambda node: True,
    )
)
_register(
    OperatorContract(
        name="MERGE",
        op=MergeOp,
        consumes=("buffer",),
        produces="buffer",
        min_inputs=1,
        max_inputs=1,
        requires=_merge_requires,
        derive=_merge_derive,
        # MERGE reads each partition's ordered run but materializes a fresh
        # single-partition TupleBuffer — it consumes ordering, it does not
        # mutate the input in place (unlike SORT/WINDOW).
        buffer_role="creates",
        order_sensitive=lambda node: True,
        reads_full_schema=lambda node: True,
    )
)
_register(
    OperatorContract(
        name="SCAN",
        op=ScanOp,
        consumes=("buffer", "stream"),
        produces="stream",
        min_inputs=1,
        max_inputs=1,
        requires=_scan_requires,
        derive=_scan_derive,
        order_sensitive=lambda node: (
            node.limit is not None or bool(node.offset)
        ),
        reads_full_schema=lambda node: node.project is None,
    )
)
_register(
    OperatorContract(
        name="ORDAGG",
        op=OrdAggOp,
        consumes=("buffer",),
        produces="stream",
        min_inputs=1,
        max_inputs=1,
        requires=_ordagg_requires,
        derive=_ordagg_derive,
        order_sensitive=lambda node: True,
    )
)
_register(
    OperatorContract(
        name="HASHAGG",
        op=HashAggOp,
        consumes=("stream", "buffer"),
        produces="stream",
        min_inputs=1,
        max_inputs=1,
        requires=_hashagg_requires,
        derive=_hashagg_derive,
    )
)
_register(
    OperatorContract(
        name="WINDOW",
        op=WindowOp,
        consumes=("buffer",),
        produces="buffer",
        min_inputs=1,
        max_inputs=1,
        requires=_window_requires,
        derive=_window_derive,
        mutates_input=True,
        buffer_role="forwards",
        mutation_effect="schema",
        order_sensitive=lambda node: True,
    )
)
_register(
    OperatorContract(
        name="COMBINE",
        op=CombineOp,
        consumes=("stream", "buffer"),
        produces="buffer",
        min_inputs=1,
        max_inputs=None,
        requires=_combine_requires,
        derive=_combine_derive,
        buffer_role="creates",
        reads_full_schema=lambda node: True,
    )
)
