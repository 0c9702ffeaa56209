"""Aggregate and window function specifications.

This registry is the vocabulary shared by the SQL binder, the computation
graph, the LOLEPOP translator and all engines. Three families exist
(paper §1/§2):

- **associative** aggregates (SUM, COUNT, MIN, MAX, ANY, ...) — computable
  on unordered streams, mergeable, hash-aggregation friendly;
- **ordered-set** aggregates (MEDIAN, PERCENTILE_*) — require the group's
  values materialized and sorted;
- **window-only** functions (ROW_NUMBER, LAG, LEAD, ...) — only meaningful
  per-row inside a WINDOW computation.

*Composed* aggregates (AVG, VAR_*, STDDEV_*, MAD, MSSD, ...) have no spec
here: the computation graph decomposes them into the primitives above plus
scalar expressions (paper §3.3 "Composed Aggregates") — one lowering each,
registered in :data:`repro.compgraph.functions.LOWERINGS` — so engines never
see them. ``ANY`` is the paper's pseudo aggregate that keeps an arbitrary
group element (used to make DISTINCT inputs unique).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from .errors import BindError
from .expr.nodes import Expr
from .types import DataType


class AggKind(enum.Enum):
    ASSOCIATIVE = "associative"
    ORDERED_SET = "ordered-set"
    WINDOW_ONLY = "window-only"


class AggSpec:
    """Static description of one aggregate/window function."""

    __slots__ = ("name", "kind", "num_args", "needs_fraction", "needs_order")

    def __init__(
        self,
        name: str,
        kind: AggKind,
        num_args: int,
        needs_fraction: bool = False,
        needs_order: bool = False,
    ):
        self.name = name
        self.kind = kind
        self.num_args = num_args
        #: percentile_disc/percentile_cont take a fraction parameter
        self.needs_fraction = needs_fraction
        #: ordered-set aggregates take WITHIN GROUP (ORDER BY ...)
        self.needs_order = needs_order

    def result_type(self, arg_types: Sequence[DataType]) -> DataType:
        """Result type given argument types."""
        name = self.name
        if name in ("count", "count_star", "row_number", "rank", "dense_rank", "ntile"):
            return DataType.INT64
        if name in ("percentile_cont", "cume_dist", "percent_rank"):
            return DataType.FLOAT64
        if name in ("bool_and", "bool_or"):
            return DataType.BOOL
        if not arg_types:
            raise BindError(f"{name} requires an argument")
        return arg_types[0]


_SPECS = {}


def _register(spec: AggSpec) -> None:
    _SPECS[spec.name] = spec


# Associative aggregates
for _name in ("sum", "min", "max", "count", "any", "bool_and", "bool_or"):
    _register(AggSpec(_name, AggKind.ASSOCIATIVE, 1))
_register(AggSpec("count_star", AggKind.ASSOCIATIVE, 0))

# Ordered-set aggregates
_register(AggSpec("median", AggKind.ORDERED_SET, 1))
_register(AggSpec("percentile_disc", AggKind.ORDERED_SET, 1,
                  needs_fraction=True, needs_order=True))
_register(AggSpec("percentile_cont", AggKind.ORDERED_SET, 1,
                  needs_fraction=True, needs_order=True))
# mode() WITHIN GROUP (ORDER BY x): most frequent value; ties resolve to the
# first value in the WITHIN GROUP order (PostgreSQL semantics).
_register(AggSpec("mode", AggKind.ORDERED_SET, 0, needs_order=True))

# Window-only functions
for _name, _args in (
    ("row_number", 0), ("rank", 0), ("dense_rank", 0), ("cume_dist", 0),
    ("percent_rank", 0), ("ntile", 1), ("lag", 1), ("lead", 1),
    ("first_value", 1), ("last_value", 1), ("nth_value", 2),
):
    _register(AggSpec(_name, AggKind.WINDOW_ONLY, _args))

#: Functions taking WITHIN GROUP (ORDER BY ...): their groups are evaluated
#: over values sorted on the order key.
WITHIN_GROUP_FUNCS = frozenset(
    name for name, spec in _SPECS.items() if spec.needs_order
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


def is_aggregate_name(name: str) -> bool:
    key = name.lower()
    spec = _SPECS.get(key)
    if spec is None:
        return _composed(key)
    return spec.kind is not AggKind.WINDOW_ONLY


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
                 "offset", "default", "fraction")

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
        (see :meth:`AggregateCall.key`)."""
        return (
            self.func,
            tuple(a.key() for a in self.args),
            self.ordering_key(),
            self.frame.key() if self.frame is not None else None,
            self.offset,
            self.default.key() if self.default is not None else None,
            self.fraction,
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
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
