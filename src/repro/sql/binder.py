"""Semantic analysis: SQL AST → normalized logical plan.

The binder resolves names against the catalog (plus CTEs and derived
tables), extracts aggregate and window calls out of expressions, and emits
plans obeying the normalization invariant of :mod:`repro.logical`: grouping
keys, aggregate arguments, window keys/arguments, join keys and sort keys
are all plain column references into explicit projections.

Notable lowering rules (all from the paper):

- ``AVG``/``VAR_*``/``STDDEV_*``/``MAD``/``MSSD`` (and any aggregate a
  user registers) are *composed*: each call runs its one lowering from
  :data:`repro.compgraph.functions.LOWERINGS` on the SELECT's
  :class:`~repro.compgraph.planner.AggregatePlanner`, which interns every
  primitive aggregate and window call the SELECT binds.
- An aggregate nested inside another aggregate's argument (§3.3 "Nested
  aggregates", e.g. ``median(e - median(e))``) becomes a *window* call
  partitioned by the outer GROUP BY keys, evaluated below the Aggregate.
- A window call inside an aggregate argument (e.g. ``sum(pow(lead(q) - q,
  2)))``) is hoisted into a Window operator below the Aggregate.
- ``[NOT] EXISTS`` conjuncts in WHERE become SEMI/ANTI joins whose
  subquery WHERE is split like an ON clause (:meth:`_Binder._join`).
- ``GROUPING SETS``/``ROLLUP``/``CUBE`` become one Aggregate carrying the
  set list (never UNION ALL — that rewrite belongs to the HyPer-baseline
  engine, not the frontend).
"""

from __future__ import annotations

import datetime
import inspect
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..aggregates import (
    FRACTION_FUNCS,
    WITHIN_GROUP_FUNCS,
    AggregateCall,
    FrameBound,
    FrameSpec,
    WindowCall,
    is_aggregate_name,
    is_window_name,
    lookup as agg_lookup,
    AggKind,
)
from ..compgraph.functions import LOWERINGS, Lowering
from ..compgraph.planner import AggregatePlanner, Node, WindowOf
from ..errors import BindError, NotSupportedError
from ..expr import functions as scalar_functions
from ..expr.eval import infer_dtype
from ..expr.nodes import (
    BinaryOp,
    CaseExpr,
    Cast,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    rewrite,
    slotted_literals,
)
from ..logical import (
    Aggregate,
    Filter,
    Join,
    JoinKind,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    UnionAll,
)
from ..logical.assemble import assemble_grouped, attach_window_stage
from ..logical.plan import template_key
from ..logical.prune import prune_columns
from ..storage.table import Catalog
from ..types import DataType, parse_type
from . import ast as sql_ast


def bind(stmt, catalog: Catalog, pinned: Optional[Set[int]] = None) -> LogicalPlan:
    """Bind a parsed statement against ``catalog`` and return a plan.

    An :class:`~repro.sql.ast.ExplainStmt` binds its inner SELECT — the
    EXPLAIN mode is handled by the API layer, not the plan. The last step
    is column pruning (:func:`~repro.logical.prune.prune_columns`).

    Literals keep their slot (:attr:`~repro.expr.nodes.Literal.slot`).
    When ``pinned`` is given, the slots whose *values* shaped the plan —
    beyond the ones the binder reads outright, which never become a leaf —
    are added to it (see :meth:`_Binder._pin_related`)."""
    if isinstance(stmt, sql_ast.ExplainStmt):
        stmt = stmt.select
    return prune_columns(_Binder(catalog, pinned=pinned).bind_statement(stmt))


def _split_and(expr: Optional[sql_ast.SqlExpr]) -> List[sql_ast.SqlExpr]:
    """Flatten a conjunction into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, sql_ast.SqlBinary) and expr.op == "and":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


class _Scope:
    """Visible columns: (table alias, source column) → output column name.

    Each column has a depth: 0 for the query's own FROM, one more per
    enclosing query. A name resolves to its nearest columns, so inside
    ``EXISTS`` a name the subquery has belongs to the subquery."""

    def __init__(self) -> None:
        #: ordered (alias, source_name, output_name, depth)
        self.entries: List[Tuple[str, str, str, int]] = []

    @classmethod
    def for_table(cls, alias: str, column_names: Sequence[str]) -> "_Scope":
        scope = cls()
        for name in column_names:
            scope.entries.append((alias.lower(), name.lower(), name, 0))
        return scope

    def concat(self, other: "_Scope", renamed: List[str]) -> "_Scope":
        scope = _Scope()
        scope.entries = list(self.entries)
        for (alias, source, _, depth), new_name in zip(other.entries, renamed):
            scope.entries.append((alias, source, new_name, depth))
        return scope

    def enclosing(self) -> "_Scope":
        """This scope as seen from a subquery: one level further out."""
        scope = _Scope()
        scope.entries = [(a, s, o, depth + 1) for a, s, o, depth in self.entries]
        return scope

    def resolve(self, parts: Sequence[str]) -> Optional[str]:
        if len(parts) == 2:
            alias, column = parts[0].lower(), parts[1].lower()
            matches = [
                (depth, output)
                for a, source, output, depth in self.entries
                if a == alias and source == column
            ]
        else:
            column = parts[0].lower()
            matches = [
                (depth, output)
                for _, source, output, depth in self.entries
                if source == column
            ]
            if not matches:
                # Allow referencing generated output names directly (e.g.
                # columns of a derived table that were renamed on conflict).
                matches = [
                    (depth, output)
                    for _, _, output, depth in self.entries
                    if output.lower() == column
                ]
        if not matches:
            return None
        nearest = min(depth for depth, _ in matches)
        unique = sorted({output for depth, output in matches if depth == nearest})
        if len(unique) > 1:
            raise BindError(f"ambiguous column reference: {'.'.join(parts)}")
        return unique[0]


class _Binder:
    def __init__(
        self,
        catalog: Catalog,
        ctes: Optional[Dict[str, LogicalPlan]] = None,
        pinned: Optional[Set[int]] = None,
    ):
        self.catalog = catalog
        self.ctes: Dict[str, LogicalPlan] = dict(ctes or {})
        #: Slots whose values shaped the plan (``None``: nobody asked).
        self._pinned = pinned
        #: Grouping sets of the SELECT currently being bound (index tuples
        #: into its group expressions) — consumed by GROUPING().
        self._current_sets: Optional[List[Tuple[int, ...]]] = None

    def _pin_related(
        self, anchors: Sequence[Expr], others: Sequence[Expr] = ()
    ) -> None:
        """Pin the slots of expressions the binder may merge by value.

        Equal expressions become one — one interned call, one projected or
        grouped column, a select item resolved to its GROUP BY key — so
        where two ``anchors``, or an anchor and one of ``others``, share a
        literal-free shape, whether they merge depends on their literals:
        another statement of the same skeleton could bind to another plan.
        Their slots stay in the plan-cache key — unless all of them hold
        the same slots (one SQL expression bound twice), which always
        merge."""
        if self._pinned is None:
            return
        shapes: Dict[Tuple, List[Expr]] = {}
        for expr in anchors:
            shapes.setdefault(template_key(expr.key()), []).append(expr)
        for expr in others:
            group = shapes.get(template_key(expr.key()))
            if group is not None:
                group.append(expr)
        for group in shapes.values():
            slots = {
                tuple(leaf.slot for leaf in slotted_literals(expr)) for expr in group
            }
            if len(slots) > 1:
                for found in slots:
                    self._pinned.update(found)

    def _bind_grouping_function(
        self,
        expr: "sql_ast.SqlFunc",
        scope: "_Scope",
        planner: AggregatePlanner,
    ) -> Expr:
        """GROUPING(col): 1 when the grouping set omits the column, else 0.
        Lowered to a CASE over the grouping_id bitmask, which every engine
        already produces."""
        if self._current_sets is None:
            raise BindError("GROUPING() requires GROUPING SETS/ROLLUP/CUBE")
        if len(expr.args) != 1:
            raise BindError("GROUPING() takes exactly one argument")
        argument = self._convert(expr.args[0], scope, planner)
        self._pin_related(planner.group_exprs, [argument])
        position = None
        for index, key in enumerate(planner.group_exprs):
            if key == argument:
                position = index
                break
        if position is None:
            raise BindError(
                f"GROUPING() argument {expr.args[0]!r} is not a grouping key"
            )
        total = len(planner.group_exprs)
        whens = []
        for indices in self._current_sets:
            mask = 0
            for p in range(total):
                if p not in indices:
                    mask |= 1 << (total - 1 - p)
            bit = 0 if position in indices else 1
            whens.append(
                (
                    BinaryOp(
                        "=",
                        ColumnRef("grouping_id"),
                        Literal(mask, DataType.INT64),
                    ),
                    Literal(bit, DataType.INT64),
                )
            )
        return CaseExpr(whens, None)

    # ==================================================================
    # Statements
    # ==================================================================
    def bind_statement(self, stmt: sql_ast.SelectStmt) -> LogicalPlan:
        binder = self
        if stmt.ctes:
            binder = _Binder(self.catalog, self.ctes, self._pinned)
            for name, cte_stmt in stmt.ctes:
                binder.ctes[name.lower()] = binder.bind_statement(cte_stmt)
        plan = binder._bind_core(stmt)
        if stmt.union_all is not None:
            parts = [plan]
            tail: Optional[sql_ast.SelectStmt] = stmt.union_all
            while tail is not None:
                parts.append(binder._bind_core(tail))
                tail = tail.union_all
            plan = UnionAll(parts)
        if stmt.order_by:
            plan = binder._bind_order_limit(plan, stmt)
        elif stmt.limit is not None or stmt.offset:
            plan = Limit(plan, stmt.limit, stmt.offset)
        return plan

    # ==================================================================
    # One SELECT core
    # ==================================================================
    def _bind_core(self, stmt: sql_ast.SelectStmt) -> LogicalPlan:
        if stmt.from_clause is None:
            raise NotSupportedError("SELECT without FROM is not supported")
        where = _split_and(stmt.where)
        plan, scope = self._bind_from(stmt.from_clause, where)
        for parts in _collect_names(stmt.where):  # a comma join saw only its sides
            scope.resolve(parts)
        plan = self._bind_where(plan, scope, where)

        group_exprs, grouping_sets = self._bind_group_by(stmt.group_by, scope, plan)
        planner = AggregatePlanner(plan, group_exprs)

        saved_sets = self._current_sets
        self._current_sets = grouping_sets
        try:
            select_items = self._expand_stars(stmt.items, scope)
            bound_items: List[Tuple[str, Expr]] = []
            taken_names: Dict[str, int] = {}
            for position, item in enumerate(select_items):
                core = self._convert(item.expr, scope, planner)
                name = self._item_name(item, core, position)
                # Unaliased duplicate output names get positional suffixes.
                if name.lower() in taken_names:
                    taken_names[name.lower()] += 1
                    name = f"{name}_{taken_names[name.lower()]}"
                else:
                    taken_names[name.lower()] = 0
                bound_items.append((name, core))
            having_core = None
            if stmt.having is not None:
                having_core = self._convert(stmt.having, scope, planner)
        finally:
            self._current_sets = saved_sets

        is_grouped = bool(planner.aggregates) or stmt.group_by is not None
        if self._pinned is not None:
            # Assembly merges group keys, call arguments and keys into shared
            # columns and resolves grouped select items to their group column.
            self._pin_related(
                group_exprs + [e for call in planner.calls for e in call.exprs()],
                _subexpressions([core for _, core in bound_items] + [having_core])
                if is_grouped
                else (),
            )
        if is_grouped:
            plan = assemble_grouped(
                plan, planner.aggregates, planner.windows, group_exprs,
                grouping_sets, bound_items, having_core,
            )
        else:
            if planner.windows:
                plan = attach_window_stage(plan, planner.windows)
            plan = Project(plan, bound_items)
        if stmt.distinct:
            plan = Aggregate(plan, plan.schema.names(), [])
        return plan

    # ------------------------------------------------------------------
    # FROM / WHERE
    # ------------------------------------------------------------------
    def _bind_from(
        self, ref: sql_ast.TableRef, where: Optional[List[sql_ast.SqlExpr]] = None
    ) -> Tuple[LogicalPlan, _Scope]:
        """Bind a FROM clause. ``where`` is its query's WHERE conjuncts: each
        comma join takes the plain ones over its two sides as its ON clause."""
        if isinstance(ref, sql_ast.NamedTable):
            key = ref.name.lower()
            if key in self.ctes:
                plan = self.ctes[key]
                return plan, _Scope.for_table(ref.alias, plan.schema.names())
            table = self.catalog.get(ref.name)
            plan = Scan(table.name, table.schema)
            return plan, _Scope.for_table(ref.alias, table.schema.names())
        if isinstance(ref, sql_ast.DerivedTable):
            plan = self.bind_statement(ref.select)
            return plan, _Scope.for_table(ref.alias, plan.schema.names())
        if isinstance(ref, sql_ast.JoinedTable):
            return self._bind_join(ref, where)
        raise BindError(f"unsupported table reference: {ref!r}")

    def _bind_join(
        self, ref: sql_ast.JoinedTable, where: Optional[List[sql_ast.SqlExpr]]
    ) -> Tuple[LogicalPlan, _Scope]:
        left_plan, left_scope = self._bind_from(ref.left, where)
        right_plan, right_scope = self._bind_from(ref.right, where)
        conjuncts = _split_and(ref.condition)
        if ref.condition is None:
            if where is None:
                raise NotSupportedError(
                    "comma joins are only supported in a query's own FROM; use JOIN ... ON"
                )
            rest: List[sql_ast.SqlExpr] = []
            for c in where:
                plain = not isinstance(c, (sql_ast.SqlExists, sql_ast.SqlInSubquery))
                over_sides = all(
                    left_scope.resolve(p) or right_scope.resolve(p) for p in _collect_names(c)
                )
                (conjuncts if plain and over_sides else rest).append(c)
            where[:] = rest
        return self._join(
            left_plan, left_scope, right_plan, right_scope,
            JoinKind(ref.kind), conjuncts,
        )

    def _join(
        self,
        left: LogicalPlan,
        left_scope: _Scope,
        right: LogicalPlan,
        right_scope: _Scope,
        kind: JoinKind,
        conjuncts: List[sql_ast.SqlExpr],
    ) -> Tuple[LogicalPlan, _Scope]:
        """Join ``left`` and ``right`` on ``conjuncts`` (an ON clause, or
        the WHERE of an EXISTS subquery on the right).

        An equality between a column of each side is a key. A conjunct over
        one side filters that side below the join — unless the join keeps
        that side's unmatched rows (the left of LEFT and ANTI); one that
        names no column filters the right side. Anything else is a residual
        filter above the join, which only an inner join can take."""
        split = len(left.schema)
        names = left.schema.concat(right.schema).names()
        scope = left_scope.concat(right_scope, names[split:])
        local = left.schema.names() + right.schema.names()

        def side(parts: Sequence[str]) -> Tuple[int, str]:
            """0 (left) or 1 (right), and the name in that side's schema."""
            output = scope.resolve(parts)
            if output is None:
                raise BindError(f"unknown column: {'.'.join(parts)}")
            index = names.index(output)
            return int(index >= split), local[index]

        filterable = {1} if kind in (JoinKind.LEFT, JoinKind.ANTI) else {0, 1}
        keys: List[Tuple[str, str]] = []
        residuals: List[sql_ast.SqlExpr] = []
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, sql_ast.SqlBinary)
                and conjunct.op == "="
                and isinstance(conjunct.left, sql_ast.SqlName)
                and isinstance(conjunct.right, sql_ast.SqlName)
            ):
                pair = sorted([side(conjunct.left.parts), side(conjunct.right.parts)])
                if pair[0][0] != pair[1][0]:
                    keys.append((pair[0][1], pair[1][1]))
                    continue
            sides = {side(parts)[0] for parts in _collect_names(conjunct)}
            if len(sides) <= 1 and (sides or {1}) <= filterable:
                if 0 in sides:
                    left = Filter(left, self._convert_simple(conjunct, left_scope, left))
                else:
                    right = Filter(
                        right, self._convert_simple(conjunct, right_scope, right)
                    )
            else:
                residuals.append(conjunct)
        if not keys:
            raise NotSupportedError("a join needs at least one equality key")
        if residuals and kind is not JoinKind.INNER:
            raise NotSupportedError(
                f"{kind.value.upper()} JOIN condition {residuals[0]!r} is neither "
                f"a key nor a filter below the join; only an inner join filters "
                f"above it"
            )
        join = Join(left, right, kind, [l for l, _ in keys], [r for _, r in keys])
        if kind in (JoinKind.SEMI, JoinKind.ANTI):
            return join, left_scope
        plan: LogicalPlan = join
        for conjunct in residuals:
            plan = Filter(plan, self._convert_simple(conjunct, scope, plan))
        return plan, scope

    def _bind_where(
        self,
        plan: LogicalPlan,
        scope: _Scope,
        where: List[sql_ast.SqlExpr],
    ) -> LogicalPlan:
        predicates: List[Expr] = []
        for conjunct in where:
            if isinstance(conjunct, sql_ast.SqlExists):
                plan = self._bind_exists(plan, scope, conjunct)
            elif isinstance(conjunct, sql_ast.SqlInSubquery):
                plan = self._bind_in_subquery(plan, scope, conjunct)
            else:
                predicates.append(self._convert_simple(conjunct, scope, plan))
        for predicate in predicates:
            plan = Filter(plan, predicate)
        return plan

    def _bind_in_subquery(
        self,
        plan: LogicalPlan,
        scope: _Scope,
        predicate: "sql_ast.SqlInSubquery",
    ) -> LogicalPlan:
        """``x IN (SELECT s ...)`` lowers to a SEMI join on ``x = s``.

        ``x NOT IN`` is three-valued. An empty subquery keeps every row;
        otherwise a NULL ``s`` keeps none, and a row survives if its ``x``
        is not NULL and matches no ``s``. So an ANTI join on ``x = s`` is
        joined on a constant key with the subquery's one row
        ``count(*) AS n, count(s) AS nn``, filtered on
        ``n = 0 OR (n = nn AND x IS NOT NULL)``, and ``n``, ``nn`` are
        projected away.
        """
        operand = self._convert_simple(predicate.operand, scope, plan)
        if not isinstance(operand, ColumnRef):
            raise NotSupportedError(
                "IN (subquery) requires a plain column operand"
            )
        sub_plan = self.bind_statement(predicate.subquery)
        if len(sub_plan.schema) != 1:
            raise BindError("IN subquery must produce exactly one column")
        inner = sub_plan.schema.fields[0].name
        if not predicate.negated:
            return Join(plan, sub_plan, JoinKind.SEMI, [operand.name], [inner])
        anti = Join(plan, sub_plan, JoinKind.ANTI, [operand.name], [inner])
        n, nn = ColumnRef("_in_n"), ColumnRef("_in_nn")
        counts = Aggregate(sub_plan, [], [
            AggregateCall(n.name, "count_star", []),
            AggregateCall(nn.name, "count", [ColumnRef(inner)]),
        ])
        one = Literal(1, DataType.INT64)
        names = plan.schema.names()
        joined = Join(
            Project(anti, [(name, ColumnRef(name)) for name in names] + [("_in_key", one)]),
            Project(counts, [("_in_one", one), (n.name, n), (nn.name, nn)]),
            JoinKind.INNER, ["_in_key"], ["_in_one"],
        )
        keep = BinaryOp(
            "or",
            BinaryOp("=", n, Literal(0, DataType.INT64)),
            BinaryOp("and", BinaryOp("=", n, nn), IsNull(operand, negated=True)),
        )
        return Project(Filter(joined, keep), [(name, ColumnRef(name)) for name in names])

    def _bind_exists(
        self,
        plan: LogicalPlan,
        outer_scope: _Scope,
        exists: sql_ast.SqlExists,
    ) -> LogicalPlan:
        """``[NOT] EXISTS`` becomes a SEMI/ANTI join whose right side is the
        subquery's FROM, split on its WHERE like an ON clause."""
        sub = exists.subquery
        if sub.group_by is not None or sub.having is not None or sub.ctes:
            raise NotSupportedError("EXISTS subqueries must be simple SELECTs")
        sub_plan, sub_scope = self._bind_from(sub.from_clause)
        kind = JoinKind.ANTI if exists.negated else JoinKind.SEMI
        joined, _ = self._join(
            plan, outer_scope.enclosing(), sub_plan, sub_scope, kind,
            _split_and(sub.where),
        )
        return joined

    # ------------------------------------------------------------------
    # GROUP BY
    # ------------------------------------------------------------------
    def _bind_group_by(
        self,
        clause: Optional[sql_ast.GroupByClause],
        scope: _Scope,
        plan: LogicalPlan,
    ) -> Tuple[List[Expr], Optional[List[Tuple[int, ...]]]]:
        """Returns (distinct group-key exprs, grouping sets as index tuples)."""
        if clause is None:
            return [], None
        if clause.sets is None:
            exprs = [
                self._convert_simple(key, scope, plan) for key in clause.keys
            ]
            self._pin_related(exprs)
            return _dedupe_exprs(exprs), None
        all_exprs: List[Expr] = []
        sets: List[Tuple[int, ...]] = []
        keys = [
            [self._convert_simple(key, scope, plan) for key in key_set]
            for key_set in clause.sets
        ]
        self._pin_related([core for key_set in keys for core in key_set])
        for key_set in keys:
            indices = []
            for core in key_set:
                for i, existing in enumerate(all_exprs):
                    if existing == core:
                        indices.append(i)
                        break
                else:
                    all_exprs.append(core)
                    indices.append(len(all_exprs) - 1)
            sets.append(tuple(indices))
        return all_exprs, sets

    # ------------------------------------------------------------------
    # ORDER BY / LIMIT
    # ------------------------------------------------------------------
    def _bind_order_limit(
        self, plan: LogicalPlan, stmt: sql_ast.SelectStmt
    ) -> LogicalPlan:
        keys: List[Tuple[str, bool]] = []
        output = plan.schema
        hidden: List[Tuple[str, Expr]] = []
        for item in stmt.order_by:
            expr = item.expr
            if isinstance(expr, sql_ast.SqlLiteral) and expr.kind == "int":
                position = int(expr.value)
                if not (1 <= position <= len(output)):
                    raise BindError(f"ORDER BY position {position} out of range")
                keys.append((output.fields[position - 1].name, item.descending))
                continue
            if isinstance(expr, sql_ast.SqlName):
                # Qualified names resolve by their column part when the
                # select list carries it (ORDER BY t.a after SELECT t.a).
                name = expr.parts[-1]
                if output.has(name):
                    keys.append((output[name].name, item.descending))
                    continue
            # Arbitrary expression over the select list: computed into a
            # hidden projection column that is dropped after the sort.
            scope = _Scope.for_table("", output.names())
            core = self._convert_simple(expr, scope, plan)
            name = f"_ord{len(hidden)}"
            hidden.append((name, core))
            keys.append((name, item.descending))
        if hidden:
            passthrough = [
                (field.name, ColumnRef(field.name)) for field in output
            ]
            plan = Project(plan, passthrough + hidden)
        plan = Sort(plan, keys)
        if stmt.limit is not None or stmt.offset:
            plan = Limit(plan, stmt.limit, stmt.offset)
        if hidden:
            plan = Project(
                plan, [(field.name, ColumnRef(field.name)) for field in output]
            )
        return plan

    # ------------------------------------------------------------------
    # Select-list helpers
    # ------------------------------------------------------------------
    def _expand_stars(
        self, items: Sequence[sql_ast.SelectItem], scope: _Scope
    ) -> List[sql_ast.SelectItem]:
        expanded: List[sql_ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, sql_ast.SqlStar):
                for alias, source, output, _ in scope.entries:
                    if item.expr.table and alias != item.expr.table.lower():
                        continue
                    expanded.append(
                        sql_ast.SelectItem(sql_ast.SqlName([output]), output)
                    )
            else:
                expanded.append(item)
        return expanded

    @staticmethod
    def _item_name(item: sql_ast.SelectItem, core: Expr, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, sql_ast.SqlName):
            return item.expr.parts[-1]
        if isinstance(item.expr, sql_ast.SqlFunc):
            return item.expr.name
        return f"col{position}"

    # ==================================================================
    # Expression conversion
    # ==================================================================
    def _convert_simple(
        self, expr: sql_ast.SqlExpr, scope: _Scope, plan: LogicalPlan
    ) -> Expr:
        """Convert an expression that may not contain aggregates/windows."""
        planner = AggregatePlanner(plan)
        core = self._convert(expr, scope, planner)
        if planner.calls:
            raise BindError(f"aggregate/window not allowed here: {expr!r}")
        return core

    def _convert(
        self,
        expr: sql_ast.SqlExpr,
        scope: _Scope,
        planner: AggregatePlanner,
        inside_aggregate: bool = False,
    ) -> Expr:
        """Convert ``expr`` over ``planner.source``, interning its aggregate
        and window calls in ``planner``."""
        recurse = lambda e: self._convert(  # noqa: E731
            e, scope, planner, inside_aggregate
        )
        plan = planner.source
        if isinstance(expr, sql_ast.SqlLiteral):
            return _bind_literal(expr)
        if isinstance(expr, sql_ast.SqlName):
            output = scope.resolve(expr.parts)
            if output is None:
                # grouping_id is a pseudo-column emitted by grouping sets;
                # assembly validates that the aggregate actually produces it.
                if expr.parts[-1] == "grouping_id" and len(expr.parts) == 1:
                    return ColumnRef("grouping_id")
                raise BindError(f"unknown column: {'.'.join(expr.parts)}")
            return ColumnRef(output)
        if isinstance(expr, sql_ast.SqlUnary):
            return UnaryOp(expr.op, recurse(expr.operand))
        if isinstance(expr, sql_ast.SqlBinary):
            left = recurse(expr.left)
            right = recurse(expr.right)
            left, right = self._coerce_comparison(expr.op, left, right, plan)
            return BinaryOp(expr.op, left, right)
        if isinstance(expr, sql_ast.SqlBetween):
            operand = recurse(expr.operand)
            low = recurse(expr.low)
            high = recurse(expr.high)
            _, low = self._coerce_comparison(">=", operand, low, plan)
            _, high = self._coerce_comparison("<=", operand, high, plan)
            between = BinaryOp(
                "and",
                BinaryOp(">=", operand, low),
                BinaryOp("<=", operand, high),
            )
            return UnaryOp("not", between) if expr.negated else between
        if isinstance(expr, sql_ast.SqlInList):
            operand = recurse(expr.operand)
            items = []
            for item in expr.items:
                bound = recurse(item)
                _, bound = self._coerce_comparison("=", operand, bound, plan)
                items.append(bound)
            return InList(operand, items, expr.negated)
        if isinstance(expr, sql_ast.SqlIsNull):
            return IsNull(recurse(expr.operand), expr.negated)
        if isinstance(expr, sql_ast.SqlCase):
            whens = []
            for cond, value in expr.whens:
                cond_core = recurse(cond)
                if expr.operand is not None:
                    cond_core = BinaryOp("=", recurse(expr.operand), cond_core)
                whens.append((cond_core, recurse(value)))
            default = recurse(expr.default) if expr.default is not None else None
            return CaseExpr(whens, default)
        if isinstance(expr, sql_ast.SqlCast):
            return Cast(recurse(expr.operand), parse_type(expr.type_name))
        if isinstance(expr, sql_ast.SqlExists):
            raise NotSupportedError("EXISTS is only supported in WHERE conjuncts")
        if isinstance(expr, sql_ast.SqlFunc):
            return self._convert_func(expr, scope, planner, inside_aggregate)
        if isinstance(expr, sql_ast.SqlStar):
            raise BindError("'*' is only valid as a select item or in count(*)")
        raise BindError(f"unsupported expression: {expr!r}")

    def _coerce_comparison(
        self, op: str, left: Expr, right: Expr, plan: LogicalPlan
    ) -> Tuple[Expr, Expr]:
        """Turn string literals compared against DATE columns into DATE
        literals (both directions)."""
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            return left, right

        def dtype_of(expr: Expr) -> Optional[DataType]:
            try:
                return infer_dtype(expr, plan.schema)
            except Exception:
                return None

        if dtype_of(left) is DataType.DATE:
            right = _to_date(right)
        if dtype_of(right) is DataType.DATE:
            left = _to_date(left)
        return left, right

    # ------------------------------------------------------------------
    def _convert_func(
        self,
        expr: sql_ast.SqlFunc,
        scope: _Scope,
        planner: AggregatePlanner,
        inside_aggregate: bool,
    ) -> Expr:
        expr = _plain_call(expr)
        name = expr.name
        # cumsum(x) sugar: running sum window
        if name == "cumsum" and expr.over is not None:
            expr = sql_ast.SqlFunc("sum", expr.args, over=expr.over)
            if expr.over.frame is None:
                expr.over.frame = sql_ast.FrameDef(
                    ("unbounded_preceding", 0), ("current", 0)
                )
            name = "sum"

        if expr.over is not None:
            return self._bind_window_call(expr, scope, planner)
        if is_aggregate_name(name):
            return self._bind_aggregate_call(expr, scope, planner, inside_aggregate)
        if is_window_name(name):
            raise BindError(f"window function {name} requires an OVER clause")
        if name == "grouping":
            return self._bind_grouping_function(expr, scope, planner)
        # Ordinary scalar function.
        scalar_functions.lookup(name)
        args = [
            self._convert(a, scope, planner, inside_aggregate) for a in expr.args
        ]
        return FuncCall(name, args)

    def _bind_aggregate_call(
        self,
        expr: sql_ast.SqlFunc,
        scope: _Scope,
        planner: AggregatePlanner,
        inside_aggregate: bool,
    ) -> Expr:
        name = expr.name
        if inside_aggregate:
            # Nested aggregate (§3.3): evaluate as a window over the group.
            window = sql_ast.SqlFunc(
                expr.name,
                expr.args,
                distinct=expr.distinct,
                within_group=expr.within_group,
                over=sql_ast.WindowDef(partition_by=[], order_by=[]),
            )
            return self._bind_window_call(
                window, scope, planner, implicit_group_partition=True
            )
        lowering = LOWERINGS.get(name)
        if lowering is not None:
            return self._lower(expr, lowering, scope, planner)

        convert = lambda e: self._convert(e, scope, planner, True)  # noqa: E731
        fraction = None
        if name in WITHIN_GROUP_FUNCS:
            value, descending, fraction = _ordered_set(expr, convert)
            core_args, order_by = [value], [(value, descending)]
        else:
            core_args = [convert(a) for a in expr.args]
            order_by = [(convert(o.expr), o.descending) for o in expr.within_group or ()]
        call = AggregateCall(
            name="_pending",
            func=name,
            args=core_args,
            distinct=expr.distinct,
            order_by=order_by,
            fraction=fraction,
        )
        return planner.intern(call).expr

    def _lower(
        self,
        expr: sql_ast.SqlFunc,
        lowering: Lowering,
        scope: _Scope,
        planner: AggregatePlanner,
        over: Optional[WindowOf] = None,
    ) -> Expr:
        """A composed aggregate call, lowered by its registered function
        (paper §3.3 "Composed Aggregates"). SQL arguments bind to the
        lowering's parameters as :func:`~repro.compgraph.functions.register`
        describes; under ``over`` — a window call — each primitive aggregate
        becomes a window over that clause. Primitive calls are interned, so
        SUM/COUNT shared between AVG and VAR_POP collapse into one
        computation — the sharing of Figure 3 query 0."""
        params = list(inspect.signature(lowering).parameters.values())[1:]
        takes_order = any(param.name == "order_by" for param in params)
        params = [param for param in params if param.name != "order_by"]
        within = expr.within_group or []
        args = list(expr.args)
        if not args and not takes_order:
            args = [item.expr for item in within]  # mad() WITHIN GROUP (ORDER BY x)
        required = sum(param.default is param.empty for param in params)
        if not required <= len(args) <= len(params):
            raise BindError(f"wrong number of arguments to {expr.name}")
        inside = over is None
        convert = lambda e: Node(self._convert(e, scope, planner, inside))  # noqa: E731
        values = [
            _int_literal(arg, f"{expr.name} argument {param.name}")
            if param.annotation in (int, "int")
            else convert(arg)
            for param, arg in zip(params, args)
        ]
        kwargs = {}
        if takes_order and within:
            kwargs["order_by"] = [(convert(o.expr), o.descending) for o in within]
        nodes = [value for value in values if isinstance(value, Node)]
        view = planner.scoped(expr.name, over, nodes if expr.distinct else None)
        return lowering(view, *values, **kwargs).expr

    def _bind_window_call(
        self,
        expr: sql_ast.SqlFunc,
        scope: _Scope,
        planner: AggregatePlanner,
        implicit_group_partition: bool = False,
    ) -> Expr:
        name = expr.name
        if not is_window_name(name):
            raise BindError(f"{name} cannot be used as a window function")
        if expr.distinct:
            raise NotSupportedError(f"{name}(DISTINCT ...) as a window function")
        convert = lambda e: self._convert(e, scope, planner)  # noqa: E731
        over = expr.over
        partition_by = [convert(p) for p in over.partition_by]
        if implicit_group_partition:
            partition_by = list(planner.group_exprs)
        order_by = [(convert(o.expr), o.descending) for o in over.order_by]
        lowering = LOWERINGS.get(name)
        if lowering is not None:
            def window_of(
                func: str, args: List[Expr], fraction: Optional[float]
            ) -> WindowCall:
                _refuse_ordered_set_order(func, order_by)
                frame = _bind_frame(over.frame, bool(order_by), func)
                return WindowCall(
                    "_pending", func, args, partition_by=partition_by,
                    order_by=order_by, frame=frame, fraction=fraction,
                )

            return self._lower(expr, lowering, scope, planner, over=window_of)
        fraction = None
        offset = 1
        default: Optional[Expr] = None
        within_descending = False
        args = list(expr.args)
        if name in WITHIN_GROUP_FUNCS:
            _refuse_ordered_set_order(name, order_by)
            value, within_descending, fraction = _ordered_set(expr, convert)
            core_args = [value]
        elif name in ("lag", "lead", "ntile", "nth_value"):
            core_args = []
            if name == "ntile":
                offset = _int_literal(args[0], "ntile bucket count")
            else:
                core_args = [convert(args[0])]
                if name == "nth_value":
                    offset = _int_literal(args[1], "nth_value position")
                elif len(args) >= 2:
                    offset = _int_literal(args[1], f"{name} offset")
                if name in ("lag", "lead") and len(args) >= 3:
                    default = convert(args[2])
        else:
            core_args = [convert(a) for a in args]
        frame = _bind_frame(over.frame, bool(order_by), name)
        call = WindowCall(
            name="_pending",
            func=name,
            args=core_args,
            partition_by=partition_by,
            order_by=order_by,
            frame=frame,
            offset=offset,
            default=default,
            fraction=fraction,
            within_descending=within_descending,
        )
        return planner.intern(call).expr

# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def _dedupe_exprs(exprs: List[Expr]) -> List[Expr]:
    seen = set()
    out = []
    for expr in exprs:
        if expr.key() not in seen:
            seen.add(expr.key())
            out.append(expr)
    return out


def _collect_names(expr: sql_ast.SqlExpr) -> List[Tuple[str, ...]]:
    names: List[Tuple[str, ...]] = []

    def walk(node: sql_ast.SqlExpr) -> None:
        if isinstance(node, sql_ast.SqlName):
            names.append(node.parts)
        elif isinstance(node, sql_ast.SqlBinary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, sql_ast.SqlUnary):
            walk(node.operand)
        elif isinstance(node, sql_ast.SqlBetween):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, sql_ast.SqlInList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, sql_ast.SqlIsNull):
            walk(node.operand)
        elif isinstance(node, sql_ast.SqlCase):
            if node.operand is not None:
                walk(node.operand)
            for cond, value in node.whens:
                walk(cond)
                walk(value)
            if node.default is not None:
                walk(node.default)
        elif isinstance(node, sql_ast.SqlCast):
            walk(node.operand)
        elif isinstance(node, sql_ast.SqlFunc):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return names


def _subexpressions(exprs: Sequence[Optional[Expr]]) -> List[Expr]:
    """Every node of every expression in ``exprs`` (``None`` skipped)."""
    nodes: List[Expr] = []
    for expr in exprs:
        if expr is not None:
            rewrite(expr, nodes.append)
    return nodes


def _bind_literal(expr: sql_ast.SqlLiteral) -> Literal:
    slot = expr.slot
    if expr.kind == "int":
        return Literal(int(expr.value), DataType.INT64, slot)
    if expr.kind == "float":
        return Literal(float(expr.value), DataType.FLOAT64, slot)
    if expr.kind == "string":
        return Literal(expr.value, DataType.STRING, slot)
    if expr.kind == "bool":
        return Literal(bool(expr.value), DataType.BOOL, slot)
    if expr.kind == "null":
        return Literal(None, DataType.INT64, slot)
    if expr.kind == "date":
        return _to_date(Literal(expr.value, DataType.STRING, slot))
    raise BindError(f"unknown literal kind {expr.kind!r}")


def _to_date(literal: Expr) -> Expr:
    """A string literal read as a DATE (``DATE '...'``, or a string compared
    with a DATE column); any other expression unchanged."""
    if isinstance(literal, Literal) and literal.dtype is DataType.STRING:
        return Literal(
            datetime.date.fromisoformat(literal.value), DataType.DATE, literal.slot
        )
    return literal


def rebind_literal(literal: Literal, text: str) -> Literal:
    """``literal``, a bound slot of one statement, as another statement of
    the same skeleton writes it: :func:`_bind_literal` of the slot ``text``
    (see :func:`~repro.sql.lexer.skeleton`), then the DATE reading
    ``literal`` went through. Raises ``ValueError`` for a text the type
    cannot take (an invalid date)."""
    if text[0] == "'":
        sql = sql_ast.SqlLiteral(text[1:-1].replace("''", "'"), "string", literal.slot)
    elif text.isdigit():
        sql = sql_ast.SqlLiteral(int(text), "int", literal.slot)
    else:
        sql = sql_ast.SqlLiteral(float(text), "float", literal.slot)
    bound = _bind_literal(sql)
    return _to_date(bound) if literal.dtype is DataType.DATE else bound


def _refuse_ordered_set_order(func: str, order_by: List[Tuple[Expr, bool]]) -> None:
    """An ordered-set window sorts each partition by its WITHIN GROUP key;
    an OVER clause's ORDER BY would have nothing to order."""
    if order_by and agg_lookup(func).kind is AggKind.ORDERED_SET:
        raise NotSupportedError(
            f"{func} as a window takes no ORDER BY in its OVER clause; "
            f"order it WITHIN GROUP"
        )


def _plain_call(expr: sql_ast.SqlFunc) -> sql_ast.SqlFunc:
    """``expr`` without ``*`` and FILTER, the one rule for each whether or
    not the call has OVER.

    ``count(*)`` is ``count_star``; any other ``f(*)`` is an error.
    ``f(x) FILTER (WHERE c)`` is ``f(CASE WHEN c THEN x END)``: the
    aggregate skips the NULLs the CASE gives the rows ``c`` rejects.
    ``count(*) FILTER`` counts ``CASE WHEN c THEN 1 END``, and an
    ordered-set call filters its WITHIN GROUP value, not its fraction. Only
    aggregates and ``cumsum`` (a running sum) take FILTER."""
    condition = expr.filter_where
    name, args, within = expr.name, list(expr.args), expr.within_group
    if args and isinstance(args[0], sql_ast.SqlStar):
        if name != "count":
            raise BindError(f"{name}(*) is not valid")
        if condition is None:
            name, args = "count_star", []
        else:
            args = [sql_ast.SqlLiteral(1, "int")]
    if condition is not None:
        if not (args or within) or not (is_aggregate_name(name) or name == "cumsum"):
            raise NotSupportedError(f"FILTER on {name}")
        only = lambda value: sql_ast.SqlCase(None, [(condition, value)], None)  # noqa: E731
        if args and name not in FRACTION_FUNCS:
            args[0] = only(args[0])
        within = [sql_ast.OrderItem(only(o.expr), o.descending) for o in within or ()]
    return sql_ast.SqlFunc(name, args, expr.distinct, within, expr.over)


def _ordered_set(
    expr: sql_ast.SqlFunc, convert
) -> Tuple[Expr, bool, Optional[float]]:
    """An ordered-set call's WITHIN GROUP value (bound by ``convert``), its
    direction, and its percentile fraction (``None`` if it takes none)."""
    if not expr.within_group:
        raise BindError(f"{expr.name} requires WITHIN GROUP (ORDER BY ...)")
    fraction = None
    if expr.name in FRACTION_FUNCS:
        first = expr.args[0] if expr.args else None
        if not isinstance(first, sql_ast.SqlLiteral):
            raise BindError("percentile fraction must be a literal")
        fraction = float(first.value)
        if not (0.0 <= fraction <= 1.0):
            raise BindError("percentile fraction must be in [0, 1]")
    ordered = expr.within_group[0]
    return convert(ordered.expr), ordered.descending, fraction


def _int_literal(expr: sql_ast.SqlExpr, what: str) -> int:
    if not isinstance(expr, sql_ast.SqlLiteral) or expr.kind != "int":
        raise BindError(f"{what} must be an integer literal")
    return int(expr.value)


#: Window functions defined on the whole partition ordering, not a frame.
_FRAMELESS_WINDOW_FUNCS = {
    "row_number", "rank", "dense_rank", "cume_dist", "percent_rank",
    "ntile", "lag", "lead",
}


def _bind_frame(
    frame: Optional[sql_ast.FrameDef], has_order: bool, func: str
) -> Optional[FrameSpec]:
    spec = agg_lookup(func)
    if func in _FRAMELESS_WINDOW_FUNCS:
        return None  # ranking/navigation functions ignore frames
    if spec.kind is AggKind.WINDOW_ONLY and frame is None:
        # first_value/last_value/nth_value take the standard default frame.
        return FrameSpec.running_range() if has_order else FrameSpec.whole_partition()
    if frame is None:
        if spec.kind is AggKind.ORDERED_SET:
            return FrameSpec.whole_partition()
        # SQL default with ORDER BY: RANGE UNBOUNDED PRECEDING..CURRENT ROW
        # (peers of the current row included).
        return (
            FrameSpec.running_range() if has_order else FrameSpec.whole_partition()
        )
    bounds = {
        "unbounded_preceding": FrameBound.UNBOUNDED_PRECEDING,
        "preceding": FrameBound.PRECEDING,
        "current": FrameBound.CURRENT_ROW,
        "following": FrameBound.FOLLOWING,
        "unbounded_following": FrameBound.UNBOUNDED_FOLLOWING,
    }
    if frame.mode == "range" and (frame.start[1] or frame.end[1]):
        raise NotSupportedError("RANGE frames with value offsets")
    return FrameSpec(
        bounds[frame.start[0]], frame.start[1],
        bounds[frame.end[0]], frame.end[1],
        mode=frame.mode,
    )
