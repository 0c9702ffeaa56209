"""Logical plan operators.

Each node knows its output :class:`~repro.types.Schema`. See the package
docstring for the normalization invariant.

This module also owns the one plan identity: :meth:`LogicalPlan.key`, a
hashable structural tuple over :meth:`~repro.expr.nodes.Expr.key`, and its
two projections — :func:`template_key` (literal values dropped) and
:func:`key_hash` (a short stable string for files and reports).
"""

from __future__ import annotations

import enum
import hashlib
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..aggregates import AggregateCall, WindowCall
from ..errors import PlanError
from ..expr.eval import infer_dtype
from ..expr.nodes import ColumnRef, Expr
from ..types import DataType, Field, Schema

if TYPE_CHECKING:
    from ..observability.provenance import RewriteEvent


def _names(names: Iterable[str]) -> Tuple:
    """Column names inside a plan key, spelled as column-reference keys:
    case-folded like every other reference, and never mistakable for a
    literal leaf by :func:`template_key`."""
    return tuple(ColumnRef(name).key() for name in names)


def template_key(key: Tuple) -> Tuple:
    """``key`` with every ``("lit", dtype, value)`` leaf reduced to
    ``("lit", dtype)``: statements that differ only in constants share a
    template key (the unit the workload profiler aggregates by)."""
    if len(key) == 3 and key[0] == "lit":
        return key[:2]
    return tuple(
        template_key(part) if isinstance(part, tuple) else part for part in key
    )


def key_hash(key: Tuple) -> str:
    """16 hex digits naming a plan key (or any tuple built around one) —
    the stable short form used where a tuple cannot go: telemetry
    fingerprints and the feedback store's files."""
    text = repr(key).encode("utf-8", "backslashreplace")
    return hashlib.blake2b(text, digest_size=8).hexdigest()


class LogicalPlan:
    """Base class; subclasses set ``schema`` and ``children``."""

    schema: Schema
    children: List["LogicalPlan"]
    #: Provenance of the logical rewrites that produced this plan, set on the
    #: root by the pass (:class:`~repro.observability.provenance.RewriteEvent`
    #: records); the engine copies them into the query profile.
    rewrites: Tuple[RewriteEvent, ...] = ()

    def label(self) -> str:
        return type(self).__name__.upper()

    def node_key(self) -> Tuple:
        """This operator's own identity — kind plus every parameter that
        changes its output — with the children left out."""
        raise NotImplementedError

    def expressions(self) -> Tuple[Expr, ...]:
        """Every expression this operator holds, its children's excluded."""
        return ()

    def replaced(self, children: Sequence["LogicalPlan"], **attrs) -> "LogicalPlan":
        """A shallow copy over ``children`` with ``attrs`` set. The schema
        is copied, not derived again: a caller changes nothing it depends on
        (the plan cache swaps literals for literals of the same type)."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, children=list(children), **attrs)
        return twin

    def key(self) -> Tuple:
        """The plan's structural identity: equal keys ⇔ the same operators
        with the same expressions, constants and columns read, whatever SQL
        text they were written as. Nothing is truncated (unlike
        :meth:`label`, which is display text)."""
        return self.node_key() + tuple(child.key() for child in self.children)


class Scan(LogicalPlan):
    """Scan of a named base table; ``schema`` lists the table columns read
    (all of them as bound, the referenced ones after column pruning)."""

    def __init__(self, table_name: str, schema: Schema):
        self.table_name = table_name
        self.schema = schema
        self.children = []

    def label(self) -> str:
        return f"SCAN {self.table_name}"

    def node_key(self) -> Tuple:
        return ("scan", self.table_name.lower(), _names(self.schema.names()))


class Filter(LogicalPlan):
    def __init__(self, child: LogicalPlan, predicate: Expr):
        self.predicate = predicate
        self.children = [child]
        self.schema = child.schema

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def label(self) -> str:
        return f"FILTER {self.predicate!r}"

    def node_key(self) -> Tuple:
        return ("filter", self.predicate.key())

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.predicate,)


class Project(LogicalPlan):
    """Compute named expressions over the child."""

    def __init__(self, child: LogicalPlan, items: Sequence[Tuple[str, Expr]]):
        self.items = list(items)
        self.children = [child]
        self.schema = Schema(
            Field(name, infer_dtype(expr, child.schema)) for name, expr in self.items
        )

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def label(self) -> str:
        inner = ", ".join(f"{e!r} AS {n}" for n, e in self.items[:6])
        more = ", ..." if len(self.items) > 6 else ""
        return f"PROJECT {inner}{more}"

    def node_key(self) -> Tuple:
        return ("project", tuple((name.lower(), expr.key()) for name, expr in self.items))

    def expressions(self) -> Tuple[Expr, ...]:
        return tuple(expr for _, expr in self.items)


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"
    ANTI = "anti"


class Join(LogicalPlan):
    """Equi-join on column names, with optional residual predicate evaluated
    over the concatenated row.

    The output is the left row followed by the right row, right-side names
    suffixed on collision (:meth:`Schema.concat`). ``output_names`` overrides
    the derived names position by position: column pruning passes the names
    the unpruned join exposed, which the operators above reference."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        kind: JoinKind,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        residual: Optional[Expr] = None,
        output_names: Optional[Sequence[str]] = None,
    ):
        if len(left_keys) != len(right_keys):
            raise PlanError("join key arity mismatch")
        self.kind = kind
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.children = [left, right]
        if kind in (JoinKind.SEMI, JoinKind.ANTI):
            self.schema = left.schema
        else:
            self.schema = left.schema.concat(right.schema)
            if output_names is not None:
                self.schema = Schema(
                    Field(name, field.dtype)
                    for name, field in zip(output_names, self.schema)
                )

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    def label(self) -> str:
        keys = ", ".join(f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"{self.kind.value.upper()} JOIN ON {keys}"

    def node_key(self) -> Tuple:
        return (
            "join",
            self.kind.value,
            _names(self.left_keys),
            _names(self.right_keys),
            self.residual.key() if self.residual is not None else None,
            _names(self.schema.names()),
        )

    def expressions(self) -> Tuple[Expr, ...]:
        return () if self.residual is None else (self.residual,)


class Aggregate(LogicalPlan):
    """GROUP BY with optional grouping sets.

    ``group_names`` is the union of all grouping keys (deterministic order);
    ``grouping_sets`` lists the key subsets (each a tuple of names drawn from
    ``group_names``); ``None`` means a single ordinary grouping over
    ``group_names``. Output schema: group columns (NULL where a grouping set
    omits a key), then one column per aggregate, then — when grouping sets
    are present — an INT64 ``grouping_id`` bitmask distinguishing sets.
    """

    def __init__(
        self,
        child: LogicalPlan,
        group_names: Sequence[str],
        aggregates: Sequence[AggregateCall],
        grouping_sets: Optional[Sequence[Tuple[str, ...]]] = None,
    ):
        self.group_names = list(group_names)
        self.aggregates = list(aggregates)
        self.grouping_sets = (
            [tuple(gs) for gs in grouping_sets] if grouping_sets is not None else None
        )
        self.children = [child]
        fields = [Field(name, child.schema[name].dtype) for name in self.group_names]
        for call in self.aggregates:
            arg_types = [infer_dtype(arg, child.schema) for arg in call.args]
            fields.append(Field(call.name, call.spec.result_type(arg_types)))
        if self.grouping_sets is not None:
            fields.append(Field("grouping_id", DataType.INT64))
        self.schema = Schema(fields)
        self._validate(child.schema)

    def _validate(self, child_schema: Schema) -> None:
        if self.grouping_sets is not None:
            for gs in self.grouping_sets:
                for name in gs:
                    if name not in self.group_names:
                        raise PlanError(
                            f"grouping set key {name!r} not in group_names"
                        )
        for name in self.group_names:
            child_schema.index_of(name)

    def grouping_id_of(self, grouping_set: Tuple[str, ...]) -> int:
        """SQL GROUPING() bitmask: bit i set when group_names[i] is *absent*
        from the set (bit 0 = last key, matching the standard)."""
        mask = 0
        total = len(self.group_names)
        for position, name in enumerate(self.group_names):
            if name not in grouping_set:
                mask |= 1 << (total - 1 - position)
        return mask

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def label(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        if self.grouping_sets is not None:
            sets = ", ".join("(" + ", ".join(gs) + ")" for gs in self.grouping_sets)
            return f"AGGREGATE [{aggs}] GROUPING SETS ({sets})"
        keys = ", ".join(self.group_names)
        return f"AGGREGATE [{aggs}] GROUP BY ({keys})"

    def node_key(self) -> Tuple:
        sets = self.grouping_sets
        return (
            "aggregate",
            _names(self.group_names),
            tuple((call.name.lower(), call.key()) for call in self.aggregates),
            None if sets is None else tuple(_names(gs) for gs in sets),
        )

    def expressions(self) -> Tuple[Expr, ...]:
        return tuple(expr for call in self.aggregates for expr in call.exprs())


class Window(LogicalPlan):
    """Evaluate window expressions; output = child columns + one per call."""

    def __init__(self, child: LogicalPlan, calls: Sequence[WindowCall]):
        self.calls = list(calls)
        self.children = [child]
        fields = list(child.schema.fields)
        for call in self.calls:
            arg_types = [infer_dtype(arg, child.schema) for arg in call.args]
            fields.append(Field(call.name, call.spec.result_type(arg_types)))
        self.schema = Schema(fields)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def label(self) -> str:
        return "WINDOW [" + ", ".join(repr(c) for c in self.calls) + "]"

    def node_key(self) -> Tuple:
        return ("window", tuple((call.name.lower(), call.key()) for call in self.calls))

    def expressions(self) -> Tuple[Expr, ...]:
        return tuple(expr for call in self.calls for expr in call.exprs())


class Sort(LogicalPlan):
    """ORDER BY over column names."""

    def __init__(self, child: LogicalPlan, keys: Sequence[Tuple[str, bool]]):
        self.keys = [(name, bool(desc)) for name, desc in keys]
        self.children = [child]
        self.schema = child.schema
        for name, _ in self.keys:
            child.schema.index_of(name)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def label(self) -> str:
        keys = ", ".join(f"{n}{' DESC' if d else ''}" for n, d in self.keys)
        return f"SORT BY {keys}"

    def node_key(self) -> Tuple:
        return ("sort", tuple((ColumnRef(name).key(), desc) for name, desc in self.keys))


class Limit(LogicalPlan):
    def __init__(self, child: LogicalPlan, limit: Optional[int], offset: int = 0):
        self.limit = limit
        self.offset = offset
        self.children = [child]
        self.schema = child.schema

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def label(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts) or "LIMIT ALL"

    def node_key(self) -> Tuple:
        return ("limit", self.limit, self.offset)


class UnionAll(LogicalPlan):
    """Bag union of same-typed children (types must match; names come from
    the first child)."""

    def __init__(self, children: Sequence[LogicalPlan]):
        if not children:
            raise PlanError("UNION ALL requires at least one input")
        self.children = list(children)
        first = children[0].schema
        for other in children[1:]:
            if other.schema.types() != first.types():
                raise PlanError("UNION ALL inputs have mismatched types")
        self.schema = first

    def label(self) -> str:
        return f"UNION ALL ({len(self.children)} inputs)"

    def node_key(self) -> Tuple:
        return ("union",)


def explain_plan(plan: LogicalPlan, indent: int = 0) -> str:
    """ASCII rendering of a logical plan tree."""
    lines = ["  " * indent + plan.label()]
    for child in plan.children:
        lines.append(explain_plan(child, indent + 1))
    return "\n".join(lines)
