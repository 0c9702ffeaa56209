"""Aggregate and window function specifications.

This registry is the one declaration of every primitive the SQL binder,
the computation graph, the LOLEPOP translator and all engines share. Each
:class:`AggSpec` states the argument domain, the result type and the merge
function; everything else is derived from those. Three families exist
(paper §1/§2), in Gray et al.'s terms:

- **distributive** aggregates (SUM, COUNT, MIN, MAX, ANY, ...) — declared
  with a merge function: partial results over disjoint inputs merge into the
  whole's (COUNT partials merge by SUM), so they run on unordered streams,
  in two-phase hash aggregation and over window frames;
- **holistic** (ordered-set) aggregates (PERCENTILE_*, MODE) — no merge
  function: they need the group's values materialized and sorted;
- **window-only** functions (ROW_NUMBER, LAG, LEAD, ...) — only meaningful
  per-row inside a WINDOW computation.

*Composed* aggregates (AVG, VAR_*, MEDIAN, MAD, MSSD, ...) have no spec
here: the computation graph decomposes them into the primitives above plus
scalar expressions (paper §3.3 "Composed Aggregates") — one lowering each,
registered in :data:`repro.compgraph.functions.LOWERINGS` — so engines never
see them. :func:`aggregate_class` classifies them by what their lowering
emits. ``ANY`` is the paper's pseudo aggregate that keeps an arbitrary
group element (used to make DISTINCT inputs unique).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BindError
from .expr.nodes import Expr
from .types import DataType


class AggKind(enum.Enum):
    ASSOCIATIVE = "associative"
    ORDERED_SET = "ordered-set"
    WINDOW_ONLY = "window-only"


class Domain(enum.Enum):
    """The argument types a primitive admits."""

    NUMERIC = "numeric"
    ORDERABLE = "orderable"
    BOOL = "bool"
    ANY = "any"

    def admits(self, dtype: DataType) -> bool:
        if self is Domain.NUMERIC:
            return dtype.is_numeric
        if self is Domain.ORDERABLE:
            return dtype.is_orderable
        if self is Domain.BOOL:
            return dtype is DataType.BOOL
        return True


class AggSpec:
    """Static description of one aggregate/window function."""

    __slots__ = (
        "name", "domain", "result", "merge", "window_only",
        "needs_fraction", "needs_order",
    )

    def __init__(
        self,
        name: str,
        domain: Optional[Domain],
        result: Optional[DataType] = None,
        merge: Optional[str] = None,
        window_only: bool = False,
        needs_fraction: bool = False,
        needs_order: bool = False,
    ):
        self.name = name
        #: what the value argument may be; ``None``: the call takes none
        self.domain = domain
        #: the result type; ``None``: the argument's type
        self.result = result
        #: the aggregate that merges partial results; ``None``: holistic
        self.merge = merge
        self.window_only = window_only
        #: percentile_disc/percentile_cont take a fraction parameter
        self.needs_fraction = needs_fraction
        #: ordered-set aggregates take WITHIN GROUP (ORDER BY ...)
        self.needs_order = needs_order

    @property
    def kind(self) -> AggKind:
        if self.window_only:
            return AggKind.WINDOW_ONLY
        return AggKind.ASSOCIATIVE if self.merge is not None else AggKind.ORDERED_SET

    def result_type(self, arg_types: Sequence[DataType]) -> DataType:
        """Result type given argument types; an argument outside the
        declared domain is a bind error."""
        if self.domain is not None:
            if not arg_types:
                raise BindError(f"{self.name} requires an argument")
            if not self.domain.admits(arg_types[0]):
                raise BindError(
                    f"{self.name} takes a {self.domain.value} argument, "
                    f"not {arg_types[0].value}"
                )
        return self.result or arg_types[0]


_SPECS = {}


def _declare(name: str, domain: Optional[Domain], result=None, **facts) -> None:
    _SPECS[name] = AggSpec(name, domain, result, **facts)


# Distributive aggregates: results over disjoint inputs merge with ``merge``.
_declare("sum", Domain.NUMERIC, merge="sum")
_declare("count", Domain.ANY, DataType.INT64, merge="sum")
_declare("count_star", None, DataType.INT64, merge="sum")
_declare("min", Domain.ORDERABLE, merge="min")
_declare("max", Domain.ORDERABLE, merge="max")
_declare("any", Domain.ANY, merge="any")
_declare("bool_and", Domain.BOOL, merge="bool_and")
_declare("bool_or", Domain.BOOL, merge="bool_or")

# Holistic (ordered-set) aggregates over the group's sorted values.
_declare("percentile_disc", Domain.ORDERABLE, needs_fraction=True, needs_order=True)
_declare("percentile_cont", Domain.NUMERIC, DataType.FLOAT64,
         needs_fraction=True, needs_order=True)
# mode() WITHIN GROUP (ORDER BY x): most frequent value; ties resolve to the
# first value in the WITHIN GROUP order (PostgreSQL semantics).
_declare("mode", Domain.ORDERABLE, needs_order=True)

# Window-only functions
for _name in ("row_number", "rank", "dense_rank", "ntile"):
    _declare(_name, None, DataType.INT64, window_only=True)
for _name in ("cume_dist", "percent_rank"):
    _declare(_name, None, DataType.FLOAT64, window_only=True)
for _name in ("lag", "lead", "first_value", "last_value", "nth_value"):
    _declare(_name, Domain.ANY, window_only=True)

#: Every primitive aggregate (window-only functions excluded), by name.
PRIMITIVES = {name: spec for name, spec in _SPECS.items() if not spec.window_only}

#: Functions taking WITHIN GROUP (ORDER BY ...): their groups are evaluated
#: over values sorted on the order key.
WITHIN_GROUP_FUNCS = frozenset(
    name for name, spec in _SPECS.items() if spec.needs_order
)

#: Functions whose first SQL argument is a percentile fraction.
FRACTION_FUNCS = frozenset(
    name for name, spec in _SPECS.items() if spec.needs_fraction
)


def _composed(name: str) -> bool:
    """Whether the computation graph's registry lowers ``name``."""
    from .compgraph.functions import LOWERINGS  # that package imports this one

    return name in LOWERINGS


def lookup(name: str) -> AggSpec:
    key = name.lower()
    if key not in _SPECS:
        if _composed(key):
            raise BindError(
                f"{name} is a composed aggregate: lower it through "
                f"repro.compgraph.functions.LOWERINGS"
            )
        raise BindError(f"unknown aggregate/window function: {name}")
    return _SPECS[key]


def aggregate_class(name: str) -> str:
    """Gray et al.'s class of an aggregate: ``"distributive"`` for a
    primitive with a merge function; for a composed function
    ``"algebraic"`` when its lowering emits only distributive aggregates
    (the super-aggregate follows from theirs) and ``"holistic"`` otherwise —
    as for a primitive without a merge function."""
    key = name.lower()
    spec = PRIMITIVES.get(key)
    if spec is not None:
        return "distributive" if spec.merge is not None else "holistic"
    from .compgraph.functions import emitted_calls  # imports this module

    calls = emitted_calls(key)
    mergeable = all(
        isinstance(call, AggregateCall) and call.spec.merge is not None
        for call in calls
    )
    return "algebraic" if mergeable else "holistic"


def is_aggregate_name(name: str) -> bool:
    key = name.lower()
    if key in PRIMITIVES:
        return True
    return key not in _SPECS and _composed(key)


def is_window_name(name: str) -> bool:
    key = name.lower()
    return key in _SPECS or _composed(key)


# ----------------------------------------------------------------------
# Call representations (shared by logical plan and computation graph)
# ----------------------------------------------------------------------


class FrameBound(enum.Enum):
    UNBOUNDED_PRECEDING = "unbounded preceding"
    PRECEDING = "preceding"
    CURRENT_ROW = "current row"
    FOLLOWING = "following"
    UNBOUNDED_FOLLOWING = "unbounded following"


class FrameSpec:
    """A window frame. ``mode`` is ``'rows'`` (positional) or ``'range'``
    (peer-aware: CURRENT ROW bounds extend over all rows with equal order
    keys — the SQL-standard default frame). ``start_offset``/``end_offset``
    apply to PRECEDING/FOLLOWING bounds and are only valid in ROWS mode."""

    __slots__ = ("start", "start_offset", "end", "end_offset", "mode")

    def __init__(
        self,
        start: FrameBound = FrameBound.UNBOUNDED_PRECEDING,
        start_offset: int = 0,
        end: FrameBound = FrameBound.CURRENT_ROW,
        end_offset: int = 0,
        mode: str = "rows",
    ):
        if mode not in ("rows", "range"):
            raise BindError(f"unknown frame mode {mode!r}")
        if mode == "range" and (start_offset or end_offset):
            raise BindError("RANGE frames with value offsets are not supported")
        self.start = start
        self.start_offset = start_offset
        self.end = end
        self.end_offset = end_offset
        self.mode = mode

    @classmethod
    def whole_partition(cls) -> "FrameSpec":
        return cls(FrameBound.UNBOUNDED_PRECEDING, 0, FrameBound.UNBOUNDED_FOLLOWING, 0)

    @classmethod
    def running(cls) -> "FrameSpec":
        return cls(FrameBound.UNBOUNDED_PRECEDING, 0, FrameBound.CURRENT_ROW, 0)

    @classmethod
    def running_range(cls) -> "FrameSpec":
        """The SQL default frame with ORDER BY: RANGE BETWEEN UNBOUNDED
        PRECEDING AND CURRENT ROW (current row's *peers* included)."""
        return cls(
            FrameBound.UNBOUNDED_PRECEDING, 0, FrameBound.CURRENT_ROW, 0,
            mode="range",
        )

    @property
    def is_whole_partition(self) -> bool:
        return (
            self.start is FrameBound.UNBOUNDED_PRECEDING
            and self.end is FrameBound.UNBOUNDED_FOLLOWING
        )

    def key(self) -> Tuple:
        return (
            self.mode, self.start.value, self.start_offset,
            self.end.value, self.end_offset,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrameSpec) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        def bound(which: FrameBound, offset: int) -> str:
            if which in (FrameBound.PRECEDING, FrameBound.FOLLOWING):
                return f"{offset} {which.value}"
            return which.value

        return (
            f"{self.mode.upper()} BETWEEN {bound(self.start, self.start_offset)} "
            f"AND {bound(self.end, self.end_offset)}"
        )


def within_group_orderings(
    calls: Sequence[AggregateCall],
) -> List[Tuple[Tuple[str, bool], List[AggregateCall]]]:
    """Ordered-set calls grouped by their WITHIN GROUP key ``(column,
    descending)``, in first-seen order: one sort serves each group."""
    groups: Dict[Tuple[str, bool], List[AggregateCall]] = {}
    for call in calls:
        ref, descending = call.order_by[0]
        groups.setdefault((ref.name, descending), []).append(call)
    return list(groups.items())


def ordering_groups(calls: Sequence[WindowCall]) -> List[List[WindowCall]]:
    """Window calls grouped by their (partition, order) clause, in
    first-seen order: one sorted buffer serves each group (paper §4.3)."""
    groups: Dict[Tuple, List[WindowCall]] = {}
    for call in calls:
        groups.setdefault(call.ordering_key(), []).append(call)
    return list(groups.values())


class AggregateCall:
    """One aggregate in a GROUP BY context (post-binding: args are exprs over
    the child schema; engines may require plain column refs — the binder
    normalizes accordingly)."""

    __slots__ = ("name", "func", "args", "distinct", "order_by", "fraction")

    def __init__(
        self,
        name: str,
        func: str,
        args: Sequence[Expr],
        distinct: bool = False,
        order_by: Optional[Sequence[Tuple[Expr, bool]]] = None,
        fraction: Optional[float] = None,
    ):
        self.name = name  # output column name
        self.func = func.lower()
        self.args = list(args)
        self.distinct = distinct
        #: WITHIN GROUP (ORDER BY ...) as (expr, descending) pairs
        self.order_by = list(order_by or [])
        self.fraction = fraction
        lookup(self.func)  # validate

    @property
    def spec(self) -> AggSpec:
        return lookup(self.func)

    def exprs(self) -> List[Expr]:
        """Every expression the call reads: arguments, then order keys."""
        return [*self.args, *(expr for expr, _ in self.order_by)]

    def key(self) -> Tuple:
        """Structural identity of the computation, output name excluded:
        calls with equal keys compute the same column (interning)."""
        return (
            self.func,
            tuple(a.key() for a in self.args),
            self.distinct,
            tuple((e.key(), d) for e, d in self.order_by),
            self.fraction,
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        distinct = "DISTINCT " if self.distinct else ""
        frac = f"[{self.fraction}]" if self.fraction is not None else ""
        order = ""
        if self.order_by:
            order = " ORDER BY " + ", ".join(
                f"{e!r}{' DESC' if d else ''}" for e, d in self.order_by
            )
        return f"{self.func}{frac}({distinct}{inner}{order}) AS {self.name}"


class WindowCall:
    """One window expression ``func(args) OVER (PARTITION BY ... ORDER BY
    ... frame)``."""

    __slots__ = ("name", "func", "args", "partition_by", "order_by", "frame",
                 "offset", "default", "fraction", "within_descending")

    def __init__(
        self,
        name: str,
        func: str,
        args: Sequence[Expr],
        partition_by: Sequence[Expr] = (),
        order_by: Sequence[Tuple[Expr, bool]] = (),
        frame: Optional[FrameSpec] = None,
        offset: int = 1,
        default: Optional[Expr] = None,
        fraction: Optional[float] = None,
        within_descending: bool = False,
    ):
        self.name = name
        self.func = func.lower()
        self.args = list(args)
        self.partition_by = list(partition_by)
        self.order_by = list(order_by)
        self.frame = frame
        #: lag/lead/ntile/nth_value offset parameter
        self.offset = offset
        self.default = default
        #: percentile fraction when an ordered-set agg is used as a window
        self.fraction = fraction
        #: WITHIN GROUP direction of an ordered-set window: each partition
        #: is sorted by the argument this way, whatever ``order_by`` says
        self.within_descending = within_descending
        lookup(self.func)

    @property
    def spec(self) -> AggSpec:
        return lookup(self.func)

    def exprs(self) -> List[Expr]:
        """Every expression the call reads: arguments, partition keys,
        order keys, then the lag/lead default."""
        out = [*self.args, *self.partition_by, *(expr for expr, _ in self.order_by)]
        if self.default is not None:
            out.append(self.default)
        return out

    def ordering_key(self) -> Tuple:
        """Identity of (partition_by, order_by) — window calls sharing it can
        be evaluated on the same sorted key ranges (paper §4.3)."""
        return (
            tuple(e.key() for e in self.partition_by),
            tuple((e.key(), d) for e, d in self.order_by),
        )

    def key(self) -> Tuple:
        """Structural identity of the computation, output name excluded
        (see :meth:`AggregateCall.key`). A descending WITHIN GROUP adds one
        element, so every other call keeps the plan key it always had."""
        key = (
            self.func,
            tuple(a.key() for a in self.args),
            self.ordering_key(),
            self.frame.key() if self.frame is not None else None,
            self.offset,
            self.default.key() if self.default is not None else None,
            self.fraction,
        )
        return key + ("desc",) if self.within_descending else key

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        if self.within_descending:
            inner += " DESC"
        parts = []
        if self.partition_by:
            parts.append(
                "PARTITION BY " + ", ".join(repr(e) for e in self.partition_by)
            )
        if self.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(f"{e!r}{' DESC' if d else ''}" for e, d in self.order_by)
            )
        if self.frame is not None:
            parts.append(repr(self.frame))
        return f"{self.func}({inner}) OVER ({' '.join(parts)}) AS {self.name}"
