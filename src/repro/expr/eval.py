"""Expression evaluation (vectorized and row-at-a-time) and type inference.

Semantics implemented here (and mirrored exactly by both evaluators):

- strict NULL propagation for arithmetic, comparisons and ordinary functions;
- Kleene three-valued logic for AND/OR/NOT;
- ``/`` always produces FLOAT64 (documented divergence from SQL integer
  division — it keeps AVG/variance arithmetic exact in one code path);
- division by zero yields NULL (the evaluation queries guard with
  ``nullif(...)``, so no result depends on this, but benchmarks must not
  crash mid-sweep);
- ``LIKE`` supports ``%`` and ``_`` wildcards.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Dict, Optional, Sequence, Set

import numpy as np

from ..errors import BindError, ExecutionError
from ..storage.batch import Batch
from ..storage.column import Column
from ..storage.dictionary import StringDictionary, object_array
from ..types import DataType, Schema, common_numeric_type
from . import functions as fn_registry
from .nodes import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
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
)

# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------


def columns_referenced(expr: Expr) -> Set[str]:
    """All column names referenced anywhere in the expression tree."""
    out: Set[str] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            out.add(node.name)
        elif isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, CaseExpr):
            for cond, value in node.whens:
                walk(cond)
                walk(value)
            if node.default is not None:
                walk(node.default)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, Cast):
            walk(node.operand)

    walk(expr)
    return out


def infer_dtype(expr: Expr, schema: Schema) -> DataType:
    """Static result type of ``expr`` against ``schema``."""
    if isinstance(expr, ColumnRef):
        return schema[expr.name].dtype
    if isinstance(expr, Literal):
        return expr.dtype
    if isinstance(expr, Cast):
        return expr.dtype
    if isinstance(expr, IsNull):
        return DataType.BOOL
    if isinstance(expr, InList):
        return DataType.BOOL
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return DataType.BOOL
        return infer_dtype(expr.operand, schema)
    if isinstance(expr, CaseExpr):
        for _, value in expr.whens:
            value_type = infer_dtype(value, schema)
            if value_type is not DataType.INT64:
                return value_type
        if expr.default is not None:
            return infer_dtype(expr.default, schema)
        return infer_dtype(expr.whens[0][1], schema)
    if isinstance(expr, FuncCall):
        func = fn_registry.lookup(expr.name)
        arg_types = [infer_dtype(arg, schema) for arg in expr.args]
        return func.return_type(arg_types)
    if isinstance(expr, BinaryOp):
        if expr.op in COMPARISON_OPS or expr.op in ("and", "or", "like"):
            return DataType.BOOL
        if expr.op == "/":
            return DataType.FLOAT64
        left = infer_dtype(expr.left, schema)
        right = infer_dtype(expr.right, schema)
        if expr.op in ("+", "-") and DataType.DATE in (left, right):
            # date +/- int days -> date; date - date -> int days
            if left is DataType.DATE and right is DataType.DATE:
                return DataType.INT64
            return DataType.DATE
        return common_numeric_type(left, right)
    raise BindError(f"cannot infer type of {expr!r}")


# ----------------------------------------------------------------------
# Vectorized evaluation
# ----------------------------------------------------------------------


def evaluate(expr: Expr, batch: Batch) -> Column:
    """Evaluate ``expr`` over a batch, returning a :class:`Column`."""
    n = len(batch)
    if isinstance(expr, ColumnRef):
        return batch.column(expr.name)
    if isinstance(expr, Literal):
        return Column.constant(expr.dtype, expr.value, n)
    if isinstance(expr, Cast):
        return _eval_cast(expr, batch)
    if isinstance(expr, IsNull):
        inner = evaluate(expr.operand, batch)
        mask = ~inner.valid_mask() if not expr.negated else inner.valid_mask()
        return Column(DataType.BOOL, mask.copy())
    if isinstance(expr, InList):
        return _eval_in_list(expr, batch)
    if isinstance(expr, UnaryOp):
        return _eval_unary(expr, batch)
    if isinstance(expr, CaseExpr):
        return _eval_case(expr, batch)
    if isinstance(expr, FuncCall):
        return _eval_func(expr, batch)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, batch)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _combine_valid(*columns: Column) -> Optional[np.ndarray]:
    masks = [col.valid for col in columns if col.valid is not None]
    if not masks:
        return None
    out = masks[0].copy()
    for mask in masks[1:]:
        out &= mask
    return out


def _eval_cast(expr: Cast, batch: Batch) -> Column:
    inner = evaluate(expr.operand, batch)
    if inner.dtype is expr.dtype:
        return inner
    if expr.dtype is DataType.STRING:
        values = object_array([str(v) for v in inner.values])
    else:
        values = inner.values.astype(expr.dtype.numpy_dtype)
    return Column(expr.dtype, values, inner.valid)


def _eval_in_list(expr: InList, batch: Batch) -> Column:
    operand = evaluate(expr.operand, batch)
    result = np.zeros(len(operand), dtype=bool)
    for item in expr.items:
        item_col = evaluate(item, batch)
        if _any_strings(operand, item_col):
            equal = _compare_strings("=", operand, item_col)
        else:
            equal = operand.values == item_col.values
        if item_col.valid is not None:
            # A NULL member matches nothing (its placeholder value might).
            equal = equal & item_col.valid
        result |= equal
    if expr.negated:
        result = ~result
    return Column(DataType.BOOL, result, operand.valid)


def _eval_unary(expr: UnaryOp, batch: Batch) -> Column:
    inner = evaluate(expr.operand, batch)
    if expr.op == "-":
        return Column(inner.dtype, -inner.values, inner.valid)
    if expr.op == "not":
        return Column(DataType.BOOL, ~inner.values.astype(bool), inner.valid)
    raise ExecutionError(f"unknown unary operator {expr.op!r}")


def _eval_case(expr: CaseExpr, batch: Batch) -> Column:
    n = len(batch)
    result_type = infer_dtype(expr, batch.schema)
    result = Column.nulls(result_type, n)
    remaining = np.ones(n, dtype=bool)
    for cond_expr, value_expr in expr.whens:
        cond = evaluate(cond_expr, batch)
        cond_true = cond.values.astype(bool) & cond.valid_mask() & remaining
        if cond_true.any():
            result = result.overlay(cond_true, evaluate(value_expr, batch))
        remaining &= ~cond_true
    if expr.default is not None and remaining.any():
        result = result.overlay(remaining, evaluate(expr.default, batch))
    return result


#: Functions whose integer literal exponent is passed to numpy as a scalar.
_SCALAR_EXPONENT = frozenset({"pow", "power"})


def _eval_func(expr: FuncCall, batch: Batch) -> Column:
    func = fn_registry.lookup(expr.name)
    func.check_arity(len(expr.args))
    args = [evaluate(arg, batch) for arg in expr.args]
    result_type = func.return_type([a.dtype for a in args])
    if func.handles_nulls:
        return _eval_null_aware(expr.name, args, result_type)
    valid = _combine_valid(*args)
    strings = [a for a in args if a.dictionary is not None]
    text = strings[0] if len(strings) == 1 else None
    if (
        text is not None
        and len(text.dictionary) < len(batch)
        and all(isinstance(e, Literal) or a is text for e, a in zip(expr.args, args))
    ):
        # One string argument, the rest constants: evaluate once per
        # dictionary entry and gather the results by code.
        entries = len(text.dictionary)
        raw = func.vector_fn(*[
            text.dictionary.strings if a is text else a.values[:entries] for a in args
        ])
        if result_type is DataType.STRING:
            mapping, dictionary = StringDictionary.encode(raw)
            return Column(result_type, mapping[text.data], valid, dictionary)
        raw = raw[text.data]
    else:
        operands = [a.values for a in args]
        exponent = expr.args[1] if func.name in _SCALAR_EXPONENT else None
        if (
            isinstance(exponent, Literal)
            and exponent.dtype is DataType.INT64
            and exponent.value is not None
        ):
            # numpy's power takes its scalar fast paths (a square for 2) only
            # for a scalar exponent; a broadcast one runs pow on every row.
            # Integers only: a scalar 0.5 would be sqrt, which differs from
            # pow at -inf and -0.0.
            operands[1] = int(exponent.value)
        raw = func.vector_fn(*operands)
    if result_type is not DataType.STRING and raw.dtype != result_type.numpy_dtype:
        raw = raw.astype(result_type.numpy_dtype)
    return Column(result_type, raw, valid)


def _eval_null_aware(name: str, args: Sequence[Column], result_type: DataType) -> Column:
    if name == "nullif":
        left, right = args
        if _any_strings(left, right):
            equal = _compare_strings("=", left, right)
        else:
            equal = left.values == right.values
        equal = equal & left.valid_mask() & right.valid_mask()
        return left.with_valid(left.valid_mask() & ~equal)
    if name == "coalesce":
        result = args[0]
        for alt in args[1:]:
            if result.valid is None:
                break
            result = result.overlay(~result.valid & alt.valid_mask(), alt)
        return result
    raise ExecutionError(f"unknown null-aware function {name!r}")


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern":
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.DOTALL)


_COMPARE = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _any_strings(*columns: Column) -> bool:
    return any(col.dictionary is not None for col in columns)


def _compare_strings(op: str, left: Column, right: Column) -> np.ndarray:
    """Row-wise string comparison without touching a string per row.

    Against a single-entry dictionary (a literal) the comparison runs once
    per entry of the other side and is gathered by code; two real columns
    are unified into one code space and compare exact codes for (in)equality
    or merged-dictionary ranks for order. A NULL literal on either side
    compares as an all-NULL string column."""
    if left.dictionary is None:
        left = left.retyped_nulls(DataType.STRING)
    if right.dictionary is None:
        right = right.retyped_nulls(DataType.STRING)
    compare = _COMPARE[op]
    if len(right.dictionary) == 1:
        return compare(left.dictionary.strings, right.dictionary.strings[0])[left.data]
    if len(left.dictionary) == 1:
        return compare(left.dictionary.strings[0], right.dictionary.strings)[right.data]
    merged, mapping = left.dictionary.unify(right.dictionary)
    left_codes = left.data
    right_codes = right.data if mapping is None else mapping[right.data]
    if op in ("=", "<>"):
        return compare(left_codes, right_codes)
    return compare(merged.rank[left_codes], merged.rank[right_codes])


def _eval_binary(expr: BinaryOp, batch: Batch) -> Column:
    if expr.op in ("and", "or"):
        return _eval_logical(expr, batch)
    left = evaluate(expr.left, batch)
    right = evaluate(expr.right, batch)
    valid = _combine_valid(left, right)
    if expr.op == "like":
        pattern_literal = expr.right
        if isinstance(pattern_literal, Literal) and isinstance(pattern_literal.value, str):
            regex = _like_regex(pattern_literal.value)
            values = np.array(
                [bool(regex.match(s)) for s in left.dictionary.strings], dtype=bool
            )[left.data]
        else:
            values = np.array(
                [bool(_like_regex(p).match(s)) for s, p in zip(left.values, right.values)],
                dtype=bool,
            )
        return Column(DataType.BOOL, values, valid)
    if expr.op in COMPARISON_OPS:
        if _any_strings(left, right):
            values = _compare_strings(expr.op, left, right)
        else:
            values = _COMPARE[expr.op](left.values, right.values)
        return Column(DataType.BOOL, np.asarray(values, dtype=bool), valid)
    if expr.op in ARITHMETIC_OPS:
        return _eval_arithmetic(expr.op, left, right, valid)
    raise ExecutionError(f"unknown binary operator {expr.op!r}")


def _eval_arithmetic(
    op: str, left: Column, right: Column, valid: Optional[np.ndarray]
) -> Column:
    lv, rv = left.values, right.values
    if op == "/":
        divisor = rv.astype(np.float64)
        zero = divisor == 0
        if zero.any():
            safe = np.where(zero, 1.0, divisor)
            values = lv.astype(np.float64) / safe
            extra = ~zero
            valid = extra if valid is None else (valid & extra)
        else:
            values = lv.astype(np.float64) / divisor
        return Column(DataType.FLOAT64, values, valid)
    # date +/- day arithmetic keeps DATE type
    if DataType.DATE in (left.dtype, right.dtype) and op in ("+", "-"):
        if left.dtype is DataType.DATE and right.dtype is DataType.DATE:
            values = lv.astype(np.int64) - rv.astype(np.int64)
            return Column(DataType.INT64, values, valid)
        values = (lv.astype(np.int64) + rv.astype(np.int64)) if op == "+" else (
            lv.astype(np.int64) - rv.astype(np.int64)
        )
        return Column(DataType.DATE, values.astype(np.int32), valid)
    result_type = common_numeric_type(
        left.dtype if left.dtype.is_numeric else DataType.INT64,
        right.dtype if right.dtype.is_numeric else DataType.INT64,
    )
    if op == "+":
        values = lv + rv
    elif op == "-":
        values = lv - rv
    elif op == "*":
        values = lv * rv
    else:  # %
        divisor = rv
        zero = divisor == 0
        if np.any(zero):
            safe = np.where(zero, 1, divisor)
            values = lv % safe
            extra = ~zero
            valid = extra if valid is None else (valid & extra)
        else:
            values = lv % divisor
    values = np.asarray(values)
    if values.dtype != result_type.numpy_dtype:
        values = values.astype(result_type.numpy_dtype)
    return Column(result_type, values, valid)


def _eval_logical(expr: BinaryOp, batch: Batch) -> Column:
    left = evaluate(expr.left, batch)
    right = evaluate(expr.right, batch)
    lv = left.values.astype(bool)
    rv = right.values.astype(bool)
    l_valid = left.valid_mask()
    r_valid = right.valid_mask()
    if expr.op == "and":
        # Kleene: FALSE dominates NULL.
        values = lv & rv
        false_somewhere = (~lv & l_valid) | (~rv & r_valid)
        valid = (l_valid & r_valid) | false_somewhere
    else:
        values = lv | rv
        true_somewhere = (lv & l_valid) | (rv & r_valid)
        valid = (l_valid & r_valid) | true_somewhere
    return Column(DataType.BOOL, values, valid)


# ----------------------------------------------------------------------
# Row-at-a-time evaluation (naive engine / oracle)
# ----------------------------------------------------------------------


def evaluate_row(expr: Expr, row: Dict[str, Any]) -> Any:
    """Evaluate against one row given as ``{column: python-value-or-None}``.

    Dates are ``datetime.date``. Returns ``None`` for NULL.
    """
    if isinstance(expr, ColumnRef):
        return row[expr.name]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Cast):
        value = evaluate_row(expr.operand, row)
        if value is None:
            return None
        if expr.dtype is DataType.FLOAT64:
            return float(value)
        if expr.dtype is DataType.INT64:
            return int(value)
        if expr.dtype is DataType.STRING:
            return str(value)
        if expr.dtype is DataType.BOOL:
            return bool(value)
        return value
    if isinstance(expr, IsNull):
        value = evaluate_row(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, InList):
        value = evaluate_row(expr.operand, row)
        if value is None:
            return None
        members = [evaluate_row(item, row) for item in expr.items]
        found = value in members
        return (not found) if expr.negated else found
    if isinstance(expr, UnaryOp):
        value = evaluate_row(expr.operand, row)
        if value is None:
            return None
        return -value if expr.op == "-" else (not value)
    if isinstance(expr, CaseExpr):
        for cond, result in expr.whens:
            if evaluate_row(cond, row) is True:
                return evaluate_row(result, row)
        if expr.default is not None:
            return evaluate_row(expr.default, row)
        return None
    if isinstance(expr, FuncCall):
        return _evaluate_row_func(expr, row)
    if isinstance(expr, BinaryOp):
        return _evaluate_row_binary(expr, row)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _evaluate_row_func(expr: FuncCall, row: Dict[str, Any]) -> Any:
    func = fn_registry.lookup(expr.name)
    func.check_arity(len(expr.args))
    args = [evaluate_row(arg, row) for arg in expr.args]
    if expr.name == "nullif":
        if args[0] is None:
            return None
        return None if args[0] == args[1] else args[0]
    if expr.name == "coalesce":
        for value in args:
            if value is not None:
                return value
        return None
    if any(value is None for value in args):
        return None
    return func.scalar_fn(*args)


def _evaluate_row_binary(expr: BinaryOp, row: Dict[str, Any]) -> Any:
    if expr.op in ("and", "or"):
        left = evaluate_row(expr.left, row)
        right = evaluate_row(expr.right, row)
        if expr.op == "and":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    left = evaluate_row(expr.left, row)
    right = evaluate_row(expr.right, row)
    if left is None or right is None:
        return None
    if expr.op == "like":
        return bool(_like_regex(right).match(left))
    if expr.op in COMPARISON_OPS:
        return {
            "=": left == right,
            "<>": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[expr.op]
    import datetime

    if isinstance(left, datetime.date) or isinstance(right, datetime.date):
        if expr.op == "-" and isinstance(left, datetime.date) and isinstance(right, datetime.date):
            return (left - right).days
        delta = datetime.timedelta(days=int(right if isinstance(left, datetime.date) else left))
        base = left if isinstance(left, datetime.date) else right
        return base + delta if expr.op == "+" else base - delta
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        if right == 0:
            return None
        return float(left) / float(right)
    if expr.op == "%":
        if right == 0:
            return None
        return left % right
    raise ExecutionError(f"unknown binary operator {expr.op!r}")
