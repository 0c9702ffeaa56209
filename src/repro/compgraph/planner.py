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

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..aggregates import AggregateCall, FrameSpec, WindowCall
from ..errors import BindError
from ..expr.nodes import BinaryOp, Cast, ColumnRef, Expr, FuncCall, ensure_expr
from ..logical import LogicalPlan
from ..logical.assemble import assemble_grouped
from ..types import DataType

NodeLike = Union["Node", Expr, int, float, str, bool, None]


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
    """Builds one grouped aggregation over a source plan."""

    def __init__(self, source: LogicalPlan, group_by: Sequence[Union[str, Node]] = ()):
        self.source = source
        self.group_exprs: List[Expr] = [
            ColumnRef(g) if isinstance(g, str) else g.expr for g in group_by
        ]
        self._aggregates: List[AggregateCall] = []
        self._windows: List[WindowCall] = []
        self._agg_index: Dict[Tuple, str] = {}
        self._win_index: Dict[Tuple, str] = {}

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
        order = [(self._arg(e), bool(d)) for e, d in (order_by or [])]
        if func in ("percentile_disc", "percentile_cont") and not order:
            order = [(args[0], False)]
            if fraction is None:
                fraction = 0.5
        call = AggregateCall("_pending", func, args, distinct, order, fraction)
        key = call.key()
        if key not in self._agg_index:
            call.name = f"_agg{len(self._aggregates)}"
            self._aggregates.append(call)
            self._agg_index[key] = call.name
        return Node(ColumnRef(self._agg_index[key]))

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
        args = [] if arg is None else [self._arg(arg)]
        order = [(self._arg(e), bool(d)) for e, d in order_by]
        if func in ("percentile_disc", "percentile_cont", "median") and frame is None:
            frame = FrameSpec.whole_partition()
            if fraction is None:
                fraction = 0.5
            if func == "median":
                func = "percentile_cont"
        call = WindowCall(
            "_pending", func, args,
            partition_by=list(self.group_exprs),
            order_by=order, frame=frame, offset=offset, fraction=fraction,
        )
        key = call.key()
        if key not in self._win_index:
            call.name = f"_win{len(self._windows)}"
            self._windows.append(call)
            self._win_index[key] = call.name
        return Node(ColumnRef(self._win_index[key]))

    # ------------------------------------------------------------------
    def finish(self, outputs: Dict[str, NodeLike]) -> LogicalPlan:
        """Assemble the normalized logical plan computing ``outputs``."""
        items = [(name, _expr(node)) for name, node in outputs.items()]
        return assemble_grouped(
            self.source,
            self._aggregates,
            self._windows,
            list(self.group_exprs),
            None,
            items,
        )

    # Introspection used by the graph renderer.
    @property
    def aggregates(self) -> List[AggregateCall]:
        return list(self._aggregates)

    @property
    def windows(self) -> List[WindowCall]:
        return list(self._windows)
