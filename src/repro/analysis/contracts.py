"""Pass 3 — engine contract rules the generic linters cannot express.

``R1-kind-vs-return`` — an operator class whose ``produces`` says
``buffer`` must return a ``TupleBuffer`` from ``execute`` (and a
``stream`` producer a list of batches). Checked against every ``return``
the pass can classify: ``TupleBuffer`` constructor calls, names bound to
one (or annotated as one), list displays/comprehensions, and
``x or [...]`` fallbacks.

``R5-stringly-rewrite`` — nobody may append a plain string (literal,
f-string, or string concatenation) directly to ``Dag.rewrites``. The
consumers that read ``pass_name`` (EXPLAIN ANALYZE's buffer-reuse count,
plan tests) and plan_diff's ``nodes`` attribution only work when every
entry is a :class:`~repro.observability.provenance.RewriteEvent`; use
``dag.record_rewrite(...)`` which builds one.

(``R2-undeclared-mutation`` lives with the purity pass, whose alias
environment it shares. There is no R3: it guarded a process-wide metrics
registry that no longer exists. There is no R4: each operator class
declares its contract on itself, and one without a ``legend`` is refused
wherever it is used — ``Lolepop.name()`` raises and the plan verifier
reports ``no-contract``.)
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Set

from .astutils import (
    class_constant,
    class_method,
    iter_py_files,
    operator_classes,
    parse_file,
    walk_own_scope,
)
from .findings import Finding


# ----------------------------------------------------------------------
# R1: declared produces vs. classified execute returns
# ----------------------------------------------------------------------
def _classify(
    value: ast.AST, buffer_names: Set[str], list_names: Set[str]
) -> Optional[str]:
    if isinstance(value, ast.Call):
        callee = value.func
        if isinstance(callee, ast.Name) and callee.id == "TupleBuffer":
            return "buffer"
        return None
    if isinstance(value, (ast.List, ast.ListComp)):
        return "stream"
    if isinstance(value, ast.Name):
        if value.id in buffer_names:
            return "buffer"
        if value.id in list_names:
            return "stream"
        return None
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
        kinds = {_classify(v, buffer_names, list_names) for v in value.values}
        kinds.discard(None)
        if len(kinds) == 1:
            return kinds.pop()
    return None


def _is_buffer_annotation(annotation: ast.AST) -> bool:
    return (
        isinstance(annotation, ast.Name) and annotation.id == "TupleBuffer"
    ) or (
        isinstance(annotation, ast.Constant)
        and annotation.value == "TupleBuffer"
    )


def _check_kind_vs_return(
    path: str, cls: ast.ClassDef, findings: List[Finding]
) -> None:
    produces = class_constant(cls, "produces")
    execute = class_method(cls, "execute")
    if produces not in ("stream", "buffer") or execute is None:
        return
    buffer_names: Set[str] = set()
    list_names: Set[str] = set()
    for node in walk_own_scope(execute):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_buffer_annotation(node.annotation):
                buffer_names.add(node.target.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = _classify(node.value, buffer_names, list_names)
            if kind == "buffer":
                buffer_names.add(target.id)
            elif kind == "stream":
                list_names.add(target.id)
    for node in walk_own_scope(execute):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        kind = _classify(node.value, buffer_names, list_names)
        if kind is not None and kind != produces:
            findings.append(Finding(
                "R1-kind-vs-return", path, node.lineno,
                f"{cls.name}.execute returns a {kind} but the class "
                f"declares produces={produces!r}",
                symbol=f"{cls.name}.execute",
            ))


# ----------------------------------------------------------------------
# R5: plain strings appended to Dag.rewrites (bypasses provenance)
# ----------------------------------------------------------------------
def _is_stringish(expr: ast.AST) -> bool:
    """Literal string, f-string, or an expression concatenating them —
    i.e. something that can only ever be a plain ``str``, never a
    ``RewriteEvent``."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, str)
    if isinstance(expr, ast.JoinedStr):
        return True
    if isinstance(expr, ast.BinOp):
        return _is_stringish(expr.left) or _is_stringish(expr.right)
    return False


def _check_stringly_rewrites(
    path: str, tree: ast.Module, findings: List[Finding]
) -> None:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "rewrites"
            and node.args
            and _is_stringish(node.args[0])
        ):
            findings.append(Finding(
                "R5-stringly-rewrite", path, node.lineno,
                "plain string appended to Dag.rewrites loses optimizer "
                "provenance; call dag.record_rewrite(...) instead",
                symbol="Dag.rewrites",
            ))


def analyze_contracts(root) -> List[Finding]:
    """Run pass 3 over every module under ``root``."""
    findings: List[Finding] = []
    for file in iter_py_files(Path(root)):
        tree = parse_file(file)
        path = str(file)
        _check_stringly_rewrites(path, tree, findings)
        for cls in operator_classes(tree):
            _check_kind_vs_return(path, cls, findings)
    return findings
