"""The planner API: programmatic composition of complex aggregates.

Example (the paper's §3.4 MSSD, spelled with this API)::

    planner = AggregatePlanner(db.plan("SELECT * FROM r"), group_by=["k"])
    x = planner.value("q")
    lead = planner.window("lead", x, order_by=[("d", False)])
    ssd = (lead - x) ** 2
    plan = planner.finish({
        "k": planner.key("k"),
        "mssd": (planner.aggregate("sum", ssd)
                 / planner.aggregate("count", ssd)).sqrt(),
    })
    db_result = LolepopEngine(db.catalog).run(plan)

Nodes are thin wrappers over core expressions; aggregates and windows are
interned (structural deduplication), so composed statistics share their
primitive computations exactly like the SQL frontend does.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..aggregates import AggKind, AggregateCall, FrameSpec, WindowCall, lookup
from ..errors import BindError, NotSupportedError
from ..expr.nodes import BinaryOp, Cast, ColumnRef, Expr, FuncCall, ensure_expr
from ..logical import LogicalPlan
from ..logical.assemble import assemble_grouped
from ..types import DataType

NodeLike = Union["Node", Expr, int, float, str, bool, None]
#: A window clause as a function: the call ``func(args)`` over it.
WindowOf = Callable[[str, List[Expr], Optional[float]], WindowCall]


class Node:
    """A value in the computation graph: wraps a core expression that may
    reference interned aggregate/window placeholders."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    # ---- arithmetic sugar -------------------------------------------
    def __add__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("+", self.expr, _expr(other)))

    def __radd__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("+", _expr(other), self.expr))

    def __sub__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("-", self.expr, _expr(other)))

    def __rsub__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("-", _expr(other), self.expr))

    def __mul__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("*", self.expr, _expr(other)))

    def __rmul__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("*", _expr(other), self.expr))

    def __truediv__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("/", self.expr, _expr(other)))

    def __rtruediv__(self, other: NodeLike) -> "Node":
        return Node(BinaryOp("/", _expr(other), self.expr))

    def __pow__(self, exponent: NodeLike) -> "Node":
        return Node(FuncCall("power", [self.expr, _expr(exponent)]))

    def __neg__(self) -> "Node":
        from ..expr.nodes import UnaryOp

        return Node(UnaryOp("-", self.expr))

    def sqrt(self) -> "Node":
        return Node(FuncCall("sqrt", [self.expr]))

    def abs(self) -> "Node":
        return Node(FuncCall("abs", [self.expr]))

    def nullif(self, value: NodeLike) -> "Node":
        return Node(FuncCall("nullif", [self.expr, _expr(value)]))

    def as_float(self) -> "Node":
        return Node(Cast(self.expr, DataType.FLOAT64))

    def __repr__(self) -> str:
        return f"Node({self.expr!r})"


def _expr(value: NodeLike) -> Expr:
    if isinstance(value, Node):
        return value.expr
    return ensure_expr(value)


class AggregatePlanner:
    """Builds one grouped aggregation over a source plan.

    The planner is also the SQL binder's interner: the binder builds one
    per SELECT over its group expressions, interns the primitive calls it
    binds with :meth:`intern` and runs each composed aggregate's lowering
    (:data:`~repro.compgraph.functions.LOWERINGS`) on a :meth:`scoped` view,
    so SQL and planner-API statistics share one interning table."""

    #: Set on a :meth:`scoped` view only.
    _call: Optional[str] = None
    _over: Optional[WindowOf] = None
    _distinct: Optional[Set[Tuple]] = None

    def __init__(
        self, source: LogicalPlan, group_by: Sequence[Union[str, Node, Expr]] = ()
    ):
        self.source = source
        self.group_exprs: List[Expr] = [
            ColumnRef(g) if isinstance(g, str) else _expr(g) for g in group_by
        ]
        self.aggregates: List[AggregateCall] = []
        self.windows: List[WindowCall] = []
        #: Every call interned, the ones merged into an earlier call too.
        self.calls: List[Union[AggregateCall, WindowCall]] = []
        self._names: Dict[Tuple, str] = {}

    def scoped(
        self,
        call: str,
        over: Optional[WindowOf] = None,
        distinct: Optional[Sequence[Node]] = None,
    ) -> "AggregatePlanner":
        """This planner as the lowering of one SQL call ``call`` sees it
        (the interning tables are shared). Under ``over`` — a window call
        — each :meth:`aggregate` interns ``over(func, args, fraction)``
        instead. With ``distinct`` — the arguments of ``call(DISTINCT
        ...)`` — each aggregate dedups its argument, which must be one of
        them. Either way :meth:`window` is refused: the nested window has
        no group to partition by, or would see duplicates."""
        view = copy.copy(self)
        view._call = call
        view._over = over
        if distinct is not None:
            view._distinct = {node.expr.key() for node in distinct}
        return view

    def intern(self, call: Union[AggregateCall, WindowCall]) -> Node:
        """The output column of ``call``, or of the structurally equal call
        interned before it."""
        self.calls.append(call)
        is_window = isinstance(call, WindowCall)
        key = (is_window, call.key())
        if key not in self._names:
            calls = self.windows if is_window else self.aggregates
            call.name = f"{'_win' if is_window else '_agg'}{len(calls)}"
            calls.append(call)
            self._names[key] = call.name
        return Node(ColumnRef(self._names[key]))

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def value(self, column: str) -> Node:
        """An input value (source column)."""
        self.source.schema.index_of(column)
        return Node(ColumnRef(column))

    def key(self, column: str) -> Node:
        """A group-key reference, for use in the output mapping."""
        ref = ColumnRef(column)
        if all(ref != g for g in self.group_exprs):
            raise BindError(f"{column!r} is not a grouping key")
        return Node(ref)

    def _arg(self, value) -> Expr:
        """Bare strings name source columns; everything else is a node or
        literal."""
        if isinstance(value, str):
            return self.value(value).expr
        return _expr(value)

    def aggregate(
        self,
        func: str,
        arg: Optional[NodeLike] = None,
        distinct: bool = False,
        fraction: Optional[float] = None,
        order_by: Optional[Sequence[Tuple[NodeLike, bool]]] = None,
    ) -> Node:
        """A primitive aggregate node (interned)."""
        args = [] if arg is None else [self._arg(arg)]
        if self._over is not None:
            return self.intern(self._over(func, args, fraction))
        if self._distinct is not None:
            if not args or args[0].key() not in self._distinct:
                raise NotSupportedError(
                    f"{self._call}(DISTINCT x) is not supported: its {func} "
                    f"term would dedup on another value than x; write "
                    f"{self._call}(x) over a SELECT DISTINCT subquery, as in "
                    f"SELECT g, {self._call}(x) FROM (SELECT DISTINCT g, x "
                    f"FROM t) AS d GROUP BY g"
                )
            distinct = True
        order = [(self._arg(e), bool(d)) for e, d in (order_by or [])]
        spec = lookup(func)
        if spec.needs_order and not order:
            order = [(args[0], False)]
        if spec.needs_fraction and fraction is None:
            fraction = 0.5
        return self.intern(
            AggregateCall("_pending", func, args, distinct, order, fraction)
        )

    def window(
        self,
        func: str,
        arg: Optional[NodeLike] = None,
        order_by: Sequence[Tuple[Union[str, NodeLike], bool]] = (),
        frame: Optional[FrameSpec] = None,
        offset: int = 1,
        fraction: Optional[float] = None,
    ) -> Node:
        """A window node partitioned by the group keys (the nested-aggregate
        pattern of §3.3: the inner computation runs per group, per row)."""
        if self._over is not None:
            raise NotSupportedError(
                f"{self._call} is not supported as a window function"
            )
        if self._distinct is not None:
            raise NotSupportedError(f"{self._call} does not support DISTINCT")
        args = [] if arg is None else [self._arg(arg)]
        order = [(self._arg(e), bool(d)) for e, d in order_by]
        spec = lookup(func)
        if spec.kind is AggKind.ORDERED_SET and frame is None:
            frame = FrameSpec.whole_partition()
        if spec.needs_fraction and fraction is None:
            fraction = 0.5
        return self.intern(
            WindowCall(
                "_pending", func, args,
                partition_by=list(self.group_exprs),
                order_by=order, frame=frame, offset=offset, fraction=fraction,
            )
        )

    # ------------------------------------------------------------------
    def finish(self, outputs: Dict[str, NodeLike]) -> LogicalPlan:
        """Assemble the normalized logical plan computing ``outputs``."""
        items = [(name, _expr(node)) for name, node in outputs.items()]
        return assemble_grouped(
            self.source,
            self.aggregates,
            self.windows,
            list(self.group_exprs),
            None,
            items,
        )
