"""SQL abstract syntax tree.

The parser emits these nodes; the binder lowers them to logical plans with
core expressions (:mod:`repro.expr.nodes`). SQL-level expressions are a
separate hierarchy because they contain constructs the core layer never
sees: aggregate calls with DISTINCT / WITHIN GROUP, window OVER clauses,
BETWEEN, qualified names, and ``*``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


class SqlExpr:
    __slots__ = ()


class SqlName(SqlExpr):
    """Possibly-qualified identifier (``a`` or ``t.a``)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[str]):
        self.parts = tuple(parts)

    def __repr__(self) -> str:
        return ".".join(self.parts)


class SqlLiteral(SqlExpr):
    """A literal; ``kind`` in {'int','float','string','bool','null','date'}.
    ``slot`` is the literal's position in the statement's slot vector
    (:func:`~repro.sql.lexer.skeleton`) when the parser was given one."""

    __slots__ = ("value", "kind", "slot")

    def __init__(self, value: Any, kind: str, slot: Optional[int] = None):
        self.value = value
        self.kind = kind
        self.slot = slot

    def __repr__(self) -> str:
        return repr(self.value)


class SqlStar(SqlExpr):
    """``*`` (select item or ``count(*)`` argument)."""

    __slots__ = ("table",)

    def __init__(self, table: Optional[str] = None):
        self.table = table

    def __repr__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


class SqlBinary(SqlExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: SqlExpr, right: SqlExpr):
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class SqlUnary(SqlExpr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: SqlExpr):
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class SqlBetween(SqlExpr):
    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: SqlExpr, low: SqlExpr, high: SqlExpr, negated: bool):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated


class SqlInList(SqlExpr):
    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: SqlExpr, items: Sequence[SqlExpr], negated: bool):
        self.operand = operand
        self.items = list(items)
        self.negated = negated


class SqlIsNull(SqlExpr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: SqlExpr, negated: bool):
        self.operand = operand
        self.negated = negated


class SqlCase(SqlExpr):
    __slots__ = ("operand", "whens", "default")

    def __init__(
        self,
        operand: Optional[SqlExpr],
        whens: Sequence[Tuple[SqlExpr, SqlExpr]],
        default: Optional[SqlExpr],
    ):
        self.operand = operand
        self.whens = list(whens)
        self.default = default


class SqlCast(SqlExpr):
    __slots__ = ("operand", "type_name")

    def __init__(self, operand: SqlExpr, type_name: str):
        self.operand = operand
        self.type_name = type_name


class FrameDef:
    """``ROWS|RANGE BETWEEN <bound> AND <bound>``; bounds are
    ('unbounded_preceding', 0) / ('preceding', n) / ('current', 0) /
    ('following', n) / ('unbounded_following', 0)."""

    __slots__ = ("start", "end", "mode")

    def __init__(
        self, start: Tuple[str, int], end: Tuple[str, int], mode: str = "rows"
    ):
        self.start = start
        self.end = end
        self.mode = mode


class WindowDef:
    """The body of an OVER clause."""

    __slots__ = ("partition_by", "order_by", "frame")

    def __init__(
        self,
        partition_by: Sequence[SqlExpr] = (),
        order_by: Sequence["OrderItem"] = (),
        frame: Optional[FrameDef] = None,
    ):
        self.partition_by = list(partition_by)
        self.order_by = list(order_by)
        self.frame = frame


class SqlFunc(SqlExpr):
    """Function call — scalar, aggregate, or window depending on name and
    clauses. ``within_group`` is the WITHIN GROUP (ORDER BY ...) list for
    ordered-set aggregates; ``over`` marks a window invocation."""

    __slots__ = ("name", "args", "distinct", "within_group", "over", "filter_where")

    def __init__(
        self,
        name: str,
        args: Sequence[SqlExpr],
        distinct: bool = False,
        within_group: Optional[Sequence["OrderItem"]] = None,
        over: Optional[WindowDef] = None,
        filter_where: Optional[SqlExpr] = None,
    ):
        self.name = name.lower()
        self.args = list(args)
        self.distinct = distinct
        self.within_group = list(within_group) if within_group is not None else None
        self.over = over
        #: FILTER (WHERE ...) — only rows satisfying it feed the aggregate.
        self.filter_where = filter_where

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({'DISTINCT ' if self.distinct else ''}{inner})"


class SqlExists(SqlExpr):
    """``[NOT] EXISTS (subquery)`` — bound to a SEMI/ANTI join when the
    correlation is a conjunction of simple equalities."""

    __slots__ = ("subquery", "negated")

    def __init__(self, subquery: "SelectStmt", negated: bool):
        self.subquery = subquery
        self.negated = negated


class SqlInSubquery(SqlExpr):
    """``expr [NOT] IN (subquery)`` — bound to a SEMI/ANTI join."""

    __slots__ = ("operand", "subquery", "negated")

    def __init__(self, operand: SqlExpr, subquery: "SelectStmt", negated: bool):
        self.operand = operand
        self.subquery = subquery
        self.negated = negated


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


class OrderItem:
    __slots__ = ("expr", "descending")

    def __init__(self, expr: SqlExpr, descending: bool = False):
        self.expr = expr
        self.descending = descending


class SelectItem:
    __slots__ = ("expr", "alias")

    def __init__(self, expr: SqlExpr, alias: Optional[str] = None):
        self.expr = expr
        self.alias = alias


class TableRef:
    __slots__ = ()


class NamedTable(TableRef):
    __slots__ = ("name", "alias")

    def __init__(self, name: str, alias: Optional[str] = None):
        self.name = name
        self.alias = alias or name


class DerivedTable(TableRef):
    __slots__ = ("select", "alias")

    def __init__(self, select: "SelectStmt", alias: str):
        self.select = select
        self.alias = alias


class JoinedTable(TableRef):
    """``left <kind> JOIN right ON condition``; kind in
    {'inner','left','semi','anti'}. A comma join has no condition."""

    __slots__ = ("left", "right", "kind", "condition")

    def __init__(
        self, left: TableRef, right: TableRef, kind: str, condition: Optional[SqlExpr]
    ):
        self.left = left
        self.right = right
        self.kind = kind
        self.condition = condition


class GroupByClause:
    """Either plain keys or grouping sets. ``sets`` is a list of key-lists;
    plain GROUP BY a, b is represented as sets=None, keys=[a, b]."""

    __slots__ = ("keys", "sets")

    def __init__(
        self,
        keys: Sequence[SqlExpr] = (),
        sets: Optional[Sequence[Sequence[SqlExpr]]] = None,
    ):
        self.keys = list(keys)
        self.sets = [list(s) for s in sets] if sets is not None else None


class SelectStmt:
    """One SELECT (possibly a UNION ALL chain via ``union_all``)."""

    __slots__ = (
        "ctes", "items", "from_clause", "where", "group_by", "having",
        "order_by", "limit", "offset", "union_all", "distinct",
    )

    def __init__(
        self,
        items: Sequence[SelectItem],
        from_clause: Optional[TableRef],
        where: Optional[SqlExpr] = None,
        group_by: Optional[GroupByClause] = None,
        having: Optional[SqlExpr] = None,
        order_by: Sequence[OrderItem] = (),
        limit: Optional[int] = None,
        offset: int = 0,
        ctes: Sequence[Tuple[str, "SelectStmt"]] = (),
        union_all: Optional["SelectStmt"] = None,
        distinct: bool = False,
    ):
        self.items = list(items)
        self.from_clause = from_clause
        self.where = where
        self.group_by = group_by
        self.having = having
        self.order_by = list(order_by)
        self.limit = limit
        self.offset = offset
        self.ctes = list(ctes)
        self.union_all = union_all
        self.distinct = distinct


class ExplainStmt:
    """``EXPLAIN [ANALYZE | LOLEPOP] <select>``.

    ``mode`` is ``"plan"`` (logical plan), ``"lolepop"`` (translated DAG),
    or ``"analyze"`` (execute and annotate the DAG with actuals).
    """

    __slots__ = ("select", "mode")

    def __init__(self, select: SelectStmt, mode: str = "plan"):
        if mode not in ("plan", "lolepop", "analyze"):
            raise ValueError(f"unknown EXPLAIN mode {mode!r}")
        self.select = select
        self.mode = mode
