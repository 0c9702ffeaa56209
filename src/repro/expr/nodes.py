"""Expression AST nodes.

All nodes are immutable value objects with structural equality, so they can
be used as dictionary keys during common-subexpression detection in the
computation graph (the paper shares ``SUM(x)``/``COUNT(x)`` between ``AVG``
and ``VAR_POP``, which requires recognizing identical expressions).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..types import DataType


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def key(self) -> Tuple:
        """A hashable structural identity (class name + children keys)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # Convenience builders so tests and the planner API read naturally.
    def __add__(self, other: "ExprLike") -> "BinaryOp":
        return BinaryOp("+", self, ensure_expr(other))

    def __sub__(self, other: "ExprLike") -> "BinaryOp":
        return BinaryOp("-", self, ensure_expr(other))

    def __mul__(self, other: "ExprLike") -> "BinaryOp":
        return BinaryOp("*", self, ensure_expr(other))

    def __truediv__(self, other: "ExprLike") -> "BinaryOp":
        return BinaryOp("/", self, ensure_expr(other))


ExprLike = Union[Expr, int, float, str, bool, None]


def ensure_expr(value: ExprLike) -> Expr:
    """Coerce a Python literal to an expression node."""
    if isinstance(value, Expr):
        return value
    return Literal.infer(value)


def col(name: str) -> "ColumnRef":
    return ColumnRef(name)


def lit(value: Any, dtype: Optional[DataType] = None) -> "Literal":
    return Literal.infer(value) if dtype is None else Literal(value, dtype)


class ColumnRef(Expr):
    """Reference to a column by (case-folded) name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name.lower()

    def key(self) -> Tuple:
        return ("col", self.name)

    def __repr__(self) -> str:
        return self.name


class Literal(Expr):
    """A typed constant. ``value is None`` encodes SQL NULL. ``slot`` is the
    statement slot the constant was written in (see
    :func:`~repro.sql.lexer.skeleton`), ``None`` for a constant the SQL
    text does not hold as such; it is not part of :meth:`key`."""

    __slots__ = ("value", "dtype", "slot")

    def __init__(self, value: Any, dtype: DataType, slot: Optional[int] = None):
        self.value = value
        self.dtype = dtype
        self.slot = slot

    @classmethod
    def infer(cls, value: Any) -> "Literal":
        if value is None:
            return cls(None, DataType.INT64)
        if isinstance(value, bool):
            return cls(value, DataType.BOOL)
        if isinstance(value, int):
            return cls(value, DataType.INT64)
        if isinstance(value, float):
            return cls(value, DataType.FLOAT64)
        if isinstance(value, str):
            return cls(value, DataType.STRING)
        import datetime

        if isinstance(value, datetime.date):
            return cls(value, DataType.DATE)
        raise TypeError(f"cannot infer literal type of {value!r}")

    def key(self) -> Tuple:
        return ("lit", self.dtype.value, self.value)

    def __repr__(self) -> str:
        return repr(self.value)


#: Binary operators grouped by family (used for type inference).
ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}
COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
LOGICAL_OPS = {"and", "or"}


class BinaryOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def key(self) -> Tuple:
        return ("bin", self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expr):
    """``-x`` or ``NOT x``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def key(self) -> Tuple:
        return ("un", self.op, self.operand.key())

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class FuncCall(Expr):
    """A scalar function call (see :mod:`repro.expr.functions`)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name.lower()
        self.args = tuple(args)

    def key(self) -> Tuple:
        return ("func", self.name) + tuple(arg.key() for arg in self.args)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


class CaseExpr(Expr):
    """``CASE WHEN cond THEN value ... ELSE value END``."""

    __slots__ = ("whens", "default")

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]], default: Optional[Expr]):
        self.whens = tuple(whens)
        self.default = default

    def key(self) -> Tuple:
        return (
            "case",
            tuple((c.key(), v.key()) for c, v in self.whens),
            self.default.key() if self.default is not None else None,
        )

    def __repr__(self) -> str:
        parts = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.whens)
        tail = f" ELSE {self.default!r}" if self.default is not None else ""
        return f"CASE {parts}{tail} END"


class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal list members."""

    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False):
        self.operand = operand
        self.items = tuple(items)
        self.negated = negated

    def key(self) -> Tuple:
        return (
            "in",
            self.operand.key(),
            tuple(i.key() for i in self.items),
            self.negated,
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(i) for i in self.items)
        neg = " not" if self.negated else ""
        return f"({self.operand!r}{neg} in ({inner}))"


class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def key(self) -> Tuple:
        return ("isnull", self.operand.key(), self.negated)

    def __repr__(self) -> str:
        return f"({self.operand!r} is {'not ' if self.negated else ''}null)"


class Cast(Expr):
    __slots__ = ("operand", "dtype")

    def __init__(self, operand: Expr, dtype: DataType):
        self.operand = operand
        self.dtype = dtype

    def key(self) -> Tuple:
        return ("cast", self.operand.key(), self.dtype.value)

    def __repr__(self) -> str:
        return f"cast({self.operand!r} as {self.dtype.value})"


def rewrite(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """``expr`` with every subexpression for which ``fn`` returns an
    expression replaced by it. ``fn`` sees each node top-down, before its
    children; a replaced node's children are not visited. Unchanged parts
    are shared, and ``expr`` itself comes back when nothing changed."""
    new = fn(expr)
    if new is not None:
        return new
    if isinstance(expr, BinaryOp):
        parts: Tuple = (expr.left, expr.right)
        build = lambda left, right: BinaryOp(expr.op, left, right)  # noqa: E731
    elif isinstance(expr, UnaryOp):
        parts, build = (expr.operand,), lambda operand: UnaryOp(expr.op, operand)
    elif isinstance(expr, IsNull):
        parts, build = (expr.operand,), lambda operand: IsNull(operand, expr.negated)
    elif isinstance(expr, Cast):
        parts, build = (expr.operand,), lambda operand: Cast(operand, expr.dtype)
    elif isinstance(expr, FuncCall):
        parts, build = expr.args, lambda *args: FuncCall(expr.name, args)
    elif isinstance(expr, InList):
        parts = (expr.operand,) + expr.items
        build = lambda operand, *items: InList(operand, items, expr.negated)  # noqa: E731
    elif isinstance(expr, CaseExpr):
        parts = sum(expr.whens, ()) + (expr.default,)
        build = lambda *p: CaseExpr(list(zip(p[:-1:2], p[1:-1:2])), p[-1])  # noqa: E731
    else:
        return expr
    new_parts = [part if part is None else rewrite(part, fn) for part in parts]
    if all(new is old for new, old in zip(new_parts, parts)):
        return expr
    return build(*new_parts)


def slotted_literals(expr: Expr) -> List[Literal]:
    """``expr``'s :class:`Literal` leaves that carry a slot, in order."""
    leaves: List[Literal] = []
    rewrite(
        expr,
        lambda node: leaves.append(node)
        if type(node) is Literal and node.slot is not None
        else None,
    )
    return leaves
