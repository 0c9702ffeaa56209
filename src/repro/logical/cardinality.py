"""Cardinality estimation over logical plans.

Textbook System-R-style estimation on top of the sampled table statistics
(:mod:`repro.stats`): equality selects ``1/distinct``, ranges use the
min/max span when available (else ⅓), conjunctions multiply assuming
independence, equi-joins divide by the larger key cardinality, and
aggregations output the estimated number of distinct key combinations
(per-key distincts multiplied, capped by input rows).

Estimates feed the cost model (:mod:`repro.costmodel`) behind the paper's
future-work cost-based DAG decisions.
"""

from __future__ import annotations

from typing import Optional

from ..expr.nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from ..stats import ColumnStats, StatisticsCache
from .plan import (
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
    Window,
)

DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_PREDICATE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.1


class CardinalityEstimator:
    """Estimates output rows and per-column distinct counts of plans.

    ``calibration`` is an optional feedback source (duck-typed:
    ``rows_for(plan)`` and ``groups_for(plan, keys)`` returning a float or
    ``None`` — see
    :class:`repro.observability.feedback.FeedbackStore`). When it
    recognizes a plan shape from observed executions its actual-row
    average overrides the model estimate; otherwise estimation falls
    through to the statistics-based rules unchanged. The indirection keeps
    this module free of any observability import.
    """

    def __init__(self, statistics: StatisticsCache, calibration=None):
        self._statistics = statistics
        self._calibration = calibration

    # ------------------------------------------------------------------
    def rows(self, plan: LogicalPlan) -> float:
        if self._calibration is not None:
            observed = self._calibration.rows_for(plan)
            if observed is not None:
                return max(1.0, float(observed))
        if isinstance(plan, Scan):
            return float(self._statistics.table_stats(plan.table_name).rows)
        if isinstance(plan, Filter):
            child = self.rows(plan.child)
            return max(1.0, child * self.selectivity(plan.predicate, plan.child))
        if isinstance(plan, (Project, Window)):
            return self.rows(plan.children[0])
        if isinstance(plan, Sort):
            return self.rows(plan.child)
        if isinstance(plan, Limit):
            child = self.rows(plan.child)
            if plan.limit is None:
                return max(0.0, child - plan.offset)
            return float(min(child, plan.limit))
        if isinstance(plan, UnionAll):
            return sum(self.rows(c) for c in plan.children)
        if isinstance(plan, Join):
            return self._join_rows(plan)
        if isinstance(plan, Aggregate):
            return self._aggregate_rows(plan)
        return 1000.0  # unknown operator: neutral guess

    def dictionary_bytes(self, scan: Scan) -> int:
        """Bytes of the string dictionaries of the columns the scan reads."""
        stats = self._statistics.table_stats(scan.table_name)
        return sum(
            column.dictionary_bytes
            for name, column in stats.columns.items()
            if scan.schema.has(name)
        )

    # ------------------------------------------------------------------
    def column_distinct(self, plan: LogicalPlan, name: str) -> float:
        """Estimated distinct count of ``name`` in the plan's output."""
        rows = self.rows(plan)
        stats = self._column_stats(plan, name)
        if stats is None:
            # Unknown provenance (computed column): guess a tenth of rows.
            return max(1.0, rows / 10.0)
        return min(stats.distinct, rows)

    def group_count(self, plan: LogicalPlan, keys) -> float:
        """Estimated number of distinct key combinations."""
        if self._calibration is not None:
            observed = self._calibration.groups_for(plan, keys)
            if observed is not None:
                return max(1.0, float(observed))
        rows = self.rows(plan)
        if not keys:
            return 1.0
        product = 1.0
        for key in keys:
            product *= self.column_distinct(plan, key)
            if product >= rows:
                return max(1.0, rows)
        return max(1.0, min(product, rows))

    # ------------------------------------------------------------------
    def _column_stats(
        self, plan: LogicalPlan, name: str
    ) -> Optional[ColumnStats]:
        """Walk down to the base table that provides ``name``, following
        pass-through projections and join sides."""
        if isinstance(plan, Scan):
            return self._statistics.table_stats(plan.table_name).column(name)
        if isinstance(plan, Project):
            for item_name, expr in plan.items:
                if item_name.lower() == name.lower():
                    if isinstance(expr, ColumnRef):
                        return self._column_stats(plan.child, expr.name)
                    return None
            return None
        if isinstance(plan, (Filter, Sort, Limit, Window)):
            return self._column_stats(plan.children[0], name)
        if isinstance(plan, Join):
            left = self._column_stats(plan.left, name)
            if left is not None:
                return left
            if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
                return None
            return self._column_stats(plan.right, name)
        if isinstance(plan, Aggregate):
            if name in plan.group_names:
                return self._column_stats(plan.child, name)
            return None
        return None

    # ------------------------------------------------------------------
    def selectivity(self, predicate: Expr, child: LogicalPlan) -> float:
        if isinstance(predicate, BinaryOp):
            if predicate.op == "and":
                return self.selectivity(predicate.left, child) * self.selectivity(
                    predicate.right, child
                )
            if predicate.op == "or":
                a = self.selectivity(predicate.left, child)
                b = self.selectivity(predicate.right, child)
                return min(1.0, a + b - a * b)
            if predicate.op == "=":
                return self._equality_selectivity(predicate, child)
            if predicate.op == "<>":
                return 1.0 - self._equality_selectivity(predicate, child)
            if predicate.op in ("<", "<=", ">", ">="):
                return self._range_selectivity(predicate, child)
            if predicate.op == "like":
                return DEFAULT_LIKE_SELECTIVITY
        if isinstance(predicate, UnaryOp) and predicate.op == "not":
            return 1.0 - self.selectivity(predicate.operand, child)
        if isinstance(predicate, InList):
            base = self._equality_like_selectivity(predicate.operand, child)
            total = min(1.0, base * max(1, len(predicate.items)))
            return 1.0 - total if predicate.negated else total
        if isinstance(predicate, IsNull):
            stats = (
                self._column_stats(child, predicate.operand.name)
                if isinstance(predicate.operand, ColumnRef)
                else None
            )
            fraction = stats.null_fraction if stats else 0.05
            return (1.0 - fraction) if predicate.negated else fraction
        return DEFAULT_PREDICATE_SELECTIVITY

    def _equality_like_selectivity(self, operand: Expr, child: LogicalPlan) -> float:
        if isinstance(operand, ColumnRef):
            stats = self._column_stats(child, operand.name)
            if stats is not None:
                return 1.0 / stats.distinct
        return DEFAULT_PREDICATE_SELECTIVITY

    def _equality_selectivity(self, predicate: BinaryOp, child: LogicalPlan) -> float:
        for side in (predicate.left, predicate.right):
            if isinstance(side, ColumnRef):
                selectivity = self._equality_like_selectivity(side, child)
                if selectivity != DEFAULT_PREDICATE_SELECTIVITY:
                    return selectivity
        return DEFAULT_PREDICATE_SELECTIVITY

    def _range_selectivity(self, predicate: BinaryOp, child: LogicalPlan) -> float:
        column: Optional[ColumnRef] = None
        literal: Optional[Literal] = None
        flipped = False
        if isinstance(predicate.left, ColumnRef) and isinstance(
            predicate.right, Literal
        ):
            column, literal = predicate.left, predicate.right
        elif isinstance(predicate.right, ColumnRef) and isinstance(
            predicate.left, Literal
        ):
            column, literal = predicate.right, predicate.left
            flipped = True
        if column is None or literal is None or literal.value is None:
            return DEFAULT_RANGE_SELECTIVITY
        stats = self._column_stats(child, column.name)
        if stats is None or stats.minimum is None or stats.maximum is None:
            return DEFAULT_RANGE_SELECTIVITY
        try:
            from ..types import date_to_days
            import datetime

            value = literal.value
            if isinstance(value, datetime.date):
                value = date_to_days(value)
            span = float(stats.maximum) - float(stats.minimum)
            if span <= 0:
                return DEFAULT_RANGE_SELECTIVITY
            position = (float(value) - float(stats.minimum)) / span
        except (TypeError, ValueError):
            return DEFAULT_RANGE_SELECTIVITY
        position = min(1.0, max(0.0, position))
        op = predicate.op
        if flipped:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        if op in ("<", "<="):
            return max(0.001, position)
        return max(0.001, 1.0 - position)

    # ------------------------------------------------------------------
    def _join_rows(self, plan: Join) -> float:
        left = self.rows(plan.left)
        right = self.rows(plan.right)
        key_cardinality = 1.0
        for lkey, rkey in zip(plan.left_keys, plan.right_keys):
            l_distinct = self.column_distinct(plan.left, lkey)
            r_distinct = self.column_distinct(plan.right, rkey)
            key_cardinality = max(key_cardinality, max(l_distinct, r_distinct))
        if plan.kind is JoinKind.SEMI:
            return max(1.0, left * min(1.0, right / key_cardinality))
        if plan.kind is JoinKind.ANTI:
            return max(1.0, left * max(0.0, 1.0 - right / key_cardinality))
        matched = left * right / key_cardinality
        if plan.kind is JoinKind.LEFT:
            return max(matched, left)
        return max(1.0, matched)

    def _aggregate_rows(self, plan: Aggregate) -> float:
        if plan.grouping_sets is not None:
            return sum(
                self.group_count(plan.child, gs) for gs in plan.grouping_sets
            )
        return self.group_count(plan.child, plan.group_names)
