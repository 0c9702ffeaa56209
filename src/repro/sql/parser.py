"""Recursive-descent SQL parser.

Grammar subset (see package docstring). The parser is deliberately plain:
one method per grammar rule, precedence climbing for binary operators, no
backtracking beyond single-token lookahead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ParseError
from .ast import (
    DerivedTable,
    ExplainStmt,
    FrameDef,
    GroupByClause,
    JoinedTable,
    NamedTable,
    OrderItem,
    SelectItem,
    SelectStmt,
    SqlBetween,
    SqlBinary,
    SqlCase,
    SqlCast,
    SqlExists,
    SqlExpr,
    SqlFunc,
    SqlInList,
    SqlInSubquery,
    SqlIsNull,
    SqlLiteral,
    SqlName,
    SqlStar,
    SqlUnary,
    TableRef,
    WindowDef,
)
from .lexer import Token, TokenType, tokenize


def parse_sql(text: str, slots: Optional[Sequence[str]] = None):
    """Parse one statement (trailing semicolon allowed): a SELECT, or
    ``EXPLAIN [ANALYZE | LOLEPOP] <select>`` yielding an
    :class:`~repro.sql.ast.ExplainStmt`.

    ``slots`` is the text's slot vector from
    :func:`~repro.sql.lexer.skeleton`. When the lexer's literals are
    exactly those texts, every literal the parser builds from a token
    carries its slot number; otherwise none does."""
    tokens = tokenize(text)
    return _Parser(tokens, _slot_numbers(tokens, slots)).parse_statement()


_SLOT_TOKENS = (TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING)


def _slot_numbers(
    tokens: List[Token], slots: Optional[Sequence[str]]
) -> Dict[int, int]:
    """Token position → slot number for every literal token, or ``{}``
    when ``slots`` is not the literal texts the lexer found."""
    if not slots:
        return {}
    positions = [i for i, token in enumerate(tokens) if token.type in _SLOT_TOKENS]
    if len(positions) != len(slots):
        return {}
    for position, text in zip(positions, slots):
        token = tokens[position]
        if token.type is TokenType.STRING:
            same = text[0] == "'" and text[1:-1].replace("''", "'") == token.value
        else:
            same = text == token.value.lower()
        if not same:
            return {}
    return {position: slot for slot, position in enumerate(positions)}


class _Parser:
    def __init__(self, tokens: List[Token], slots: Dict[int, int]):
        self._tokens = tokens
        self._pos = 0
        self._slots = slots

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        found = token.value or "end of input"
        return ParseError(f"{message}, found {found!r}", token.line, token.column)

    def _accept_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        if not self._accept_keyword(name):
            raise self._error(f"expected {name.upper()}")

    def _accept_symbol(self, *symbols: str) -> bool:
        if self._peek().is_symbol(*symbols):
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            raise self._error(f"expected {symbol!r}")

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return token.value
        # Non-reserved keywords usable as identifiers in practice.
        if token.type is TokenType.KEYWORD and token.value in (
            "date", "row", "first", "last", "sets",
        ):
            self._advance()
            return token.value
        raise self._error("expected identifier")

    def _expect_integer(self) -> int:
        token = self._peek()
        if token.type is not TokenType.INTEGER:
            raise self._error("expected integer")
        self._advance()
        return int(token.value)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self):
        if self._accept_keyword("explain"):
            mode = "plan"
            if self._accept_keyword("analyze"):
                mode = "analyze"
            elif (
                self._peek().type is TokenType.IDENT
                and self._peek().value == "lolepop"
            ):
                self._advance()
                mode = "lolepop"
            stmt = ExplainStmt(self._parse_select(), mode)
        else:
            stmt = self._parse_select()
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return stmt

    def _parse_select(self) -> SelectStmt:
        ctes: List[Tuple[str, SelectStmt]] = []
        if self._accept_keyword("with"):
            while True:
                name = self._expect_ident()
                self._expect_keyword("as")
                self._expect_symbol("(")
                ctes.append((name, self._parse_select()))
                self._expect_symbol(")")
                if not self._accept_symbol(","):
                    break
        stmt = self._parse_select_core()
        stmt.ctes = ctes
        # UNION ALL chain
        while self._accept_keyword("union"):
            self._expect_keyword("all")
            other = self._parse_select_core()
            tail = stmt
            while tail.union_all is not None:
                tail = tail.union_all
            tail.union_all = other
        # ORDER BY / LIMIT / OFFSET apply to the whole union
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            stmt.order_by = self._parse_order_items()
        if self._accept_keyword("limit"):
            stmt.limit = self._expect_integer()
        if self._accept_keyword("offset"):
            stmt.offset = self._expect_integer()
        return stmt

    def _parse_select_core(self) -> SelectStmt:
        self._expect_keyword("select")
        distinct = False
        if self._accept_keyword("distinct"):
            distinct = True
        elif self._accept_keyword("all"):
            pass
        items = [self._parse_select_item()]
        while self._accept_symbol(","):
            items.append(self._parse_select_item())
        from_clause: Optional[TableRef] = None
        if self._accept_keyword("from"):
            from_clause = self._parse_from()
        where = None
        if self._accept_keyword("where"):
            where = self._parse_expr()
        group_by = None
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = self._parse_group_by()
        having = None
        if self._accept_keyword("having"):
            having = self._parse_expr()
        return SelectStmt(
            items=items,
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        if self._peek().is_symbol("*"):
            self._advance()
            return SelectItem(SqlStar())
        # table.* form
        if (
            self._peek().type is TokenType.IDENT
            and self._peek(1).is_symbol(".")
            and self._peek(2).is_symbol("*")
        ):
            table = self._advance().value
            self._advance()
            self._advance()
            return SelectItem(SqlStar(table))
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return SelectItem(expr, alias)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_from(self) -> TableRef:
        ref = self._parse_table_ref()
        while True:
            kind = None
            if self._accept_keyword("inner"):
                kind = "inner"
                self._expect_keyword("join")
            elif self._accept_keyword("left"):
                self._accept_keyword("outer")
                kind = "left"
                self._expect_keyword("join")
            elif self._accept_keyword("semi"):
                kind = "semi"
                self._expect_keyword("join")
            elif self._accept_keyword("anti"):
                kind = "anti"
                self._expect_keyword("join")
            elif self._accept_keyword("join"):
                kind = "inner"
            elif self._accept_symbol(","):
                # A comma join has no condition: its keys come from WHERE.
                ref = JoinedTable(ref, self._parse_table_ref(), "inner", None)
                continue
            else:
                break
            right = self._parse_table_ref()
            self._expect_keyword("on")
            condition = self._parse_expr()
            ref = JoinedTable(ref, right, kind, condition)
        return ref

    def _parse_table_ref(self) -> TableRef:
        if self._accept_symbol("("):
            select = self._parse_select()
            self._expect_symbol(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return DerivedTable(select, alias)
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return NamedTable(name, alias)

    # ------------------------------------------------------------------
    # GROUP BY
    # ------------------------------------------------------------------
    def _parse_group_by(self) -> GroupByClause:
        if self._peek().is_keyword("grouping"):
            self._advance()
            self._expect_keyword("sets")
            self._expect_symbol("(")
            sets = [self._parse_grouping_set()]
            while self._accept_symbol(","):
                sets.append(self._parse_grouping_set())
            self._expect_symbol(")")
            return GroupByClause(sets=sets)
        if self._peek().is_keyword("rollup"):
            self._advance()
            keys = self._parse_paren_expr_list()
            sets = [keys[:i] for i in range(len(keys), -1, -1)]
            return GroupByClause(sets=sets)
        if self._peek().is_keyword("cube"):
            self._advance()
            keys = self._parse_paren_expr_list()
            sets = []
            for mask in range(1 << len(keys)):
                sets.append([k for i, k in enumerate(keys) if mask & (1 << i)])
            sets.sort(key=len, reverse=True)
            return GroupByClause(sets=sets)
        # Plain GROUP BY; PostgreSQL-style GROUP BY (a, b) parenthesized rows
        # and GROUP BY ((a,b),(a)) shorthand for grouping sets.
        if self._peek().is_symbol("("):
            if self._looks_like_set_list():
                self._expect_symbol("(")
                sets = [self._parse_grouping_set()]
                while self._accept_symbol(","):
                    sets.append(self._parse_grouping_set())
                self._expect_symbol(")")
                if len(sets) == 1:
                    return GroupByClause(keys=sets[0])
                return GroupByClause(sets=sets)
            # GROUP BY (a, b): a parenthesized plain key list.
            return GroupByClause(keys=self._parse_grouping_set())
        keys = [self._parse_expr()]
        while self._accept_symbol(","):
            keys.append(self._parse_expr())
        return GroupByClause(keys=keys)

    def _looks_like_set_list(self) -> bool:
        """Heuristic: ``GROUP BY ((a,b),(a))`` — outer paren directly followed
        by another paren means a set list; ``GROUP BY (a, b)`` is a key list.
        """
        return self._peek().is_symbol("(") and self._peek(1).is_symbol("(")

    def _parse_grouping_set(self) -> List[SqlExpr]:
        if self._accept_symbol("("):
            if self._accept_symbol(")"):
                return []
            keys = [self._parse_expr()]
            while self._accept_symbol(","):
                keys.append(self._parse_expr())
            self._expect_symbol(")")
            return keys
        return [self._parse_expr()]

    def _parse_paren_expr_list(self) -> List[SqlExpr]:
        self._expect_symbol("(")
        items = [self._parse_expr()]
        while self._accept_symbol(","):
            items.append(self._parse_expr())
        self._expect_symbol(")")
        return items

    def _parse_order_items(self) -> List[OrderItem]:
        items = [self._parse_order_item()]
        while self._accept_symbol(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        if self._accept_keyword("nulls"):
            if not (self._accept_keyword("first") or self._accept_keyword("last")):
                raise self._error("expected FIRST or LAST")
        return OrderItem(expr, descending)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> SqlExpr:
        return self._parse_or()

    def _parse_or(self) -> SqlExpr:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = SqlBinary("or", left, self._parse_and())
        return left

    def _parse_and(self) -> SqlExpr:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = SqlBinary("and", left, self._parse_not())
        return left

    def _parse_not(self) -> SqlExpr:
        if self._peek().is_keyword("not") and self._peek(1).is_keyword("exists"):
            self._advance()
            self._advance()
            self._expect_symbol("(")
            subquery = self._parse_select()
            self._expect_symbol(")")
            return SqlExists(subquery, negated=True)
        if self._accept_keyword("not"):
            return SqlUnary("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> SqlExpr:
        left = self._parse_additive()
        while True:
            negated = False
            if self._peek().is_keyword("not") and self._peek(1).is_keyword(
                "in", "between", "like"
            ):
                self._advance()
                negated = True
            token = self._peek()
            if token.is_symbol("=", "<>", "<", "<=", ">", ">="):
                self._advance()
                left = SqlBinary(token.value, left, self._parse_additive())
            elif token.is_keyword("is"):
                self._advance()
                is_negated = self._accept_keyword("not")
                self._expect_keyword("null")
                left = SqlIsNull(left, is_negated)
            elif token.is_keyword("in"):
                self._advance()
                self._expect_symbol("(")
                if self._peek().is_keyword("select", "with"):
                    subquery = self._parse_select()
                    self._expect_symbol(")")
                    left = SqlInSubquery(left, subquery, negated)
                    continue
                items = [self._parse_expr()]
                while self._accept_symbol(","):
                    items.append(self._parse_expr())
                self._expect_symbol(")")
                left = SqlInList(left, items, negated)
            elif token.is_keyword("between"):
                self._advance()
                low = self._parse_additive()
                self._expect_keyword("and")
                high = self._parse_additive()
                left = SqlBetween(left, low, high, negated)
            elif token.is_keyword("like"):
                self._advance()
                left = SqlBinary("like", left, self._parse_additive())
                if negated:
                    left = SqlUnary("not", left)
            else:
                break
        return left

    def _parse_additive(self) -> SqlExpr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.is_symbol("+", "-"):
                self._advance()
                left = SqlBinary(token.value, left, self._parse_multiplicative())
            elif token.is_symbol("||"):
                self._advance()
                left = SqlFunc("concat", [left, self._parse_multiplicative()])
            else:
                break
        return left

    def _parse_multiplicative(self) -> SqlExpr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.is_symbol("*", "/", "%"):
                self._advance()
                left = SqlBinary(token.value, left, self._parse_unary())
            else:
                break
        return left

    def _parse_unary(self) -> SqlExpr:
        if self._accept_symbol("-"):
            operand = self._parse_unary()
            if isinstance(operand, SqlLiteral) and operand.kind in ("int", "float"):
                # No slot: the folded value is not the slot's text, so a
                # cached plan cannot take another one (the slot is pinned).
                return SqlLiteral(-operand.value, operand.kind)
            return SqlUnary("-", operand)
        if self._accept_symbol("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> SqlExpr:
        token = self._peek()
        slot = self._slots.get(self._pos)
        if token.type is TokenType.INTEGER:
            self._advance()
            return SqlLiteral(int(token.value), "int", slot)
        if token.type is TokenType.FLOAT:
            self._advance()
            return SqlLiteral(float(token.value), "float", slot)
        if token.type is TokenType.STRING:
            self._advance()
            return SqlLiteral(token.value, "string", slot)
        if token.is_keyword("true"):
            self._advance()
            return SqlLiteral(True, "bool")
        if token.is_keyword("false"):
            self._advance()
            return SqlLiteral(False, "bool")
        if token.is_keyword("null"):
            self._advance()
            return SqlLiteral(None, "null")
        if token.is_keyword("date"):
            # DATE 'yyyy-mm-dd' literal; bare `date` also allowed as ident.
            if self._peek(1).type is TokenType.STRING:
                self._advance()
                slot = self._slots.get(self._pos)
                value = self._advance().value
                return SqlLiteral(value, "date", slot)
        if token.is_keyword("exists"):
            self._advance()
            self._expect_symbol("(")
            subquery = self._parse_select()
            self._expect_symbol(")")
            return SqlExists(subquery, negated=False)
        if token.is_keyword("not") and self._peek(1).is_keyword("exists"):
            self._advance()
            self._advance()
            self._expect_symbol("(")
            subquery = self._parse_select()
            self._expect_symbol(")")
            return SqlExists(subquery, negated=True)
        if token.is_keyword("case"):
            return self._parse_case()
        if token.is_keyword("cast"):
            self._advance()
            self._expect_symbol("(")
            operand = self._parse_expr()
            self._expect_keyword("as")
            type_name = self._expect_ident()
            self._expect_symbol(")")
            return SqlCast(operand, type_name)
        if self._accept_symbol("("):
            expr = self._parse_expr()
            self._expect_symbol(")")
            return expr
        if token.type is TokenType.IDENT or token.is_keyword(
            "date", "row", "first", "last", "sets"
        ):
            return self._parse_name_or_call()
        if token.is_keyword("grouping") and self._peek(1).is_symbol("("):
            # GROUPING(col) — the grouping-set indicator function.
            self._advance()
            self._expect_symbol("(")
            argument = self._parse_expr()
            self._expect_symbol(")")
            return SqlFunc("grouping", [argument])
        raise self._error("expected expression")

    def _parse_case(self) -> SqlExpr:
        self._expect_keyword("case")
        operand = None
        if not self._peek().is_keyword("when"):
            operand = self._parse_expr()
        whens: List[Tuple[SqlExpr, SqlExpr]] = []
        while self._accept_keyword("when"):
            cond = self._parse_expr()
            self._expect_keyword("then")
            value = self._parse_expr()
            whens.append((cond, value))
        default = None
        if self._accept_keyword("else"):
            default = self._parse_expr()
        self._expect_keyword("end")
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        return SqlCase(operand, whens, default)

    def _parse_name_or_call(self) -> SqlExpr:
        name = self._expect_ident()
        if self._peek().is_symbol("."):
            self._advance()
            second = self._expect_ident()
            return SqlName([name, second])
        if not self._peek().is_symbol("("):
            return SqlName([name])
        # Function call
        self._advance()  # (
        distinct = False
        args: List[SqlExpr] = []
        if self._accept_symbol(")"):
            pass
        else:
            if self._accept_keyword("distinct"):
                distinct = True
            if self._peek().is_symbol("*"):
                self._advance()
                args.append(SqlStar())
            else:
                args.append(self._parse_expr())
                while self._accept_symbol(","):
                    args.append(self._parse_expr())
            self._expect_symbol(")")
        within_group = None
        if self._peek().is_keyword("within"):
            self._advance()
            self._expect_keyword("group")
            self._expect_symbol("(")
            self._expect_keyword("order")
            self._expect_keyword("by")
            within_group = self._parse_order_items()
            self._expect_symbol(")")
        filter_where = None
        if self._peek().is_keyword("filter"):
            self._advance()
            self._expect_symbol("(")
            self._expect_keyword("where")
            filter_where = self._parse_expr()
            self._expect_symbol(")")
        over = None
        if self._accept_keyword("over"):
            over = self._parse_window_def()
        return SqlFunc(name, args, distinct, within_group, over, filter_where)

    def _parse_window_def(self) -> WindowDef:
        self._expect_symbol("(")
        partition_by: List[SqlExpr] = []
        order_by: List[OrderItem] = []
        frame = None
        if self._accept_keyword("partition"):
            self._expect_keyword("by")
            partition_by.append(self._parse_expr())
            while self._accept_symbol(","):
                partition_by.append(self._parse_expr())
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = self._parse_order_items()
        if self._peek().is_keyword("rows", "range"):
            frame = self._parse_frame()
        self._expect_symbol(")")
        return WindowDef(partition_by, order_by, frame)

    def _parse_frame(self) -> FrameDef:
        mode = "range" if self._accept_keyword("range") else "rows"
        if mode == "rows":
            self._expect_keyword("rows")
        if self._accept_keyword("between"):
            start = self._parse_frame_bound()
            self._expect_keyword("and")
            end = self._parse_frame_bound()
            return FrameDef(start, end, mode)
        start = self._parse_frame_bound()
        return FrameDef(start, ("current", 0), mode)

    def _parse_frame_bound(self) -> Tuple[str, int]:
        if self._accept_keyword("unbounded"):
            if self._accept_keyword("preceding"):
                return ("unbounded_preceding", 0)
            self._expect_keyword("following")
            return ("unbounded_following", 0)
        if self._accept_keyword("current"):
            self._expect_keyword("row")
            return ("current", 0)
        offset = self._expect_integer()
        if self._accept_keyword("preceding"):
            return ("preceding", offset)
        self._expect_keyword("following")
        return ("following", offset)
