#!/usr/bin/env python
"""Engine-specific static lint (stdlib-ast only, no third-party deps).

Rules the generic linters cannot express, run over ``src/`` in CI:

R1  kind-vs-return — a :class:`Lolepop` subclass whose ``produces`` says
    ``buffer`` must return a ``TupleBuffer`` from ``execute`` (and a
    ``stream`` producer must return a list of batches). Checked against
    every ``return`` whose value the linter can classify: ``TupleBuffer``
    constructor calls, names bound to one (or annotated as one), list
    displays/comprehensions, and ``x or [...]`` fallbacks.

R2  undeclared-mutation — ``execute`` may not call a mutating
    ``TupleBuffer`` method (``set_ordering``, ``append_columns``,
    ``sort_inplace``, …) or assign through an input buffer unless the
    class declares ``mutates_input = True``. Tainted names are those bound
    from ``inputs[i]`` inside ``execute``; the declaration is what the
    plan verifier's buffer-race analysis trusts, so it must not lie.
    (``spill`` is excluded: it moves bytes from memory to disk without
    changing the buffer's logical contents.)

R3  unlocked-metrics — outside ``observability/metrics.py`` nobody may
    assign to attributes of ``GLOBAL_METRICS`` or of the primitives it
    hands out (``GLOBAL_METRICS.counter(...).value = …``); the primitives
    are locked internally and raw attribute writes bypass the lock.

R4  unregistered-operator — every ``Lolepop`` subclass in the source tree
    must appear as ``op=<Class>`` in an ``OperatorContract`` registration
    somewhere in the ``lolepop`` package (``properties.py`` holds the core
    eight; satellite modules like ``reuse_op.py`` register their own — the
    same invariant ``assert_all_registered`` enforces at import time,
    checked here without importing anything).

R5  stringly-rewrite — nobody may append a plain string (literal,
    f-string, or string concatenation) directly to ``Dag.rewrites``. The
    optimizer provenance machinery (EXPLAIN ANALYZE cost deltas, profile
    ``rewrite_events``, plan_diff attribution) only works when every entry
    is a :class:`~repro.observability.provenance.RewriteEvent`; use
    ``dag.record_rewrite(...)`` which builds one.

Exit status 1 when any rule fires; findings print as
``path:line: [rule] message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: TupleBuffer/BufferPartition methods that change the buffer's logical
#: contents. This literal is only the *fallback* for source trees that do
#: not contain ``storage/buffer.py`` (synthetic lint-test corpora): when
#: the scanned tree has the buffer source, the set is derived from it by
#: assignment dataflow (``repro.analysis.astutils.derive_mutating_methods``)
#: so it cannot drift from the implementation. A unit test pins the
#: derived set equal to this fallback.
MUTATING_BUFFER_METHODS = {
    "set_ordering",
    "append_columns",
    "columns_appended",
    "sort_inplace",
    "sort_permutation",
    "apply_sort_order",
    "append",
    "append_pieces",
    "append_partitioned",
    "enable_spilling",
}


def resolve_mutating_methods(trees: "Dict[Path, ast.Module]") -> Set[str]:
    """The buffer-mutator set for this lint run: derived from the scanned
    tree's ``storage/buffer.py`` when present, else the fallback literal."""
    buffer_tree = next(
        (
            tree for path, tree in trees.items()
            if str(path).replace("\\", "/").endswith("storage/buffer.py")
        ),
        None,
    )
    if buffer_tree is None:
        return set(MUTATING_BUFFER_METHODS)
    try:
        from repro.analysis.astutils import derive_mutating_methods
    except ImportError:
        src = Path(__file__).resolve().parent.parent / "src"
        if src.is_dir():
            sys.path.insert(0, str(src))
        try:
            from repro.analysis.astutils import derive_mutating_methods
        except ImportError:  # analyzer not colocated: keep the fallback
            return set(MUTATING_BUFFER_METHODS)
    return derive_mutating_methods(buffer_tree)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def walk_own_scope(func: ast.FunctionDef):
    """Like ``ast.walk`` over the function body, but without descending
    into nested function/lambda scopes (their returns and assignments
    belong to the closure, not to the function under analysis)."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def parse_tree(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - the suite would fail too
        print(f"{path}: syntax error: {exc}", file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def class_attr_value(cls: ast.ClassDef, name: str) -> Optional[ast.expr]:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt.value
    return None


def string_attr(cls: ast.ClassDef, name: str) -> Optional[str]:
    value = class_attr_value(cls, name)
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    return None


def bool_attr(cls: ast.ClassDef, name: str) -> Optional[bool]:
    value = class_attr_value(cls, name)
    if isinstance(value, ast.Constant) and isinstance(value.value, bool):
        return value.value
    return None


def base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def iter_classes(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def lolepop_subclasses(
    trees: Dict[Path, ast.Module]
) -> Dict[str, Tuple[Path, ast.ClassDef]]:
    """Name → (path, ClassDef) for every transitive Lolepop subclass,
    resolved by class-name inheritance across the whole source tree."""
    by_name: Dict[str, Tuple[Path, ast.ClassDef]] = {}
    parents: Dict[str, List[str]] = {}
    for path, tree in trees.items():
        for cls in iter_classes(tree):
            by_name[cls.name] = (path, cls)
            parents[cls.name] = base_names(cls)

    def descends(name: str, seen: Set[str]) -> bool:
        if name in seen:
            return False
        seen.add(name)
        for parent in parents.get(name, []):
            if parent == "Lolepop" or descends(parent, seen):
                return True
        return False

    return {
        name: location
        for name, location in by_name.items()
        if descends(name, set())
    }


# ----------------------------------------------------------------------
# R1: declared produces vs. classified execute returns
# ----------------------------------------------------------------------
def classify_return(
    value: ast.expr, buffer_names: Set[str], list_names: Set[str]
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
        kinds = {
            classify_return(v, buffer_names, list_names) for v in value.values
        }
        kinds.discard(None)
        if len(kinds) == 1:
            return kinds.pop()
    return None


def _is_buffer_annotation(annotation: Optional[ast.expr]) -> bool:
    return (
        isinstance(annotation, ast.Name) and annotation.id == "TupleBuffer"
    ) or (
        isinstance(annotation, ast.Constant)
        and annotation.value == "TupleBuffer"
    )


def check_kind_vs_return(
    path: Path, cls: ast.ClassDef, findings: List[Finding]
) -> None:
    produces = string_attr(cls, "produces")
    if produces not in ("stream", "buffer"):
        return
    execute = next(
        (
            stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "execute"
        ),
        None,
    )
    if execute is None:
        return
    buffer_names: Set[str] = set()
    list_names: Set[str] = set()
    for node in walk_own_scope(execute):
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _is_buffer_annotation(node.annotation):
                buffer_names.add(node.target.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = classify_return(node.value, buffer_names, list_names)
            if kind == "buffer":
                buffer_names.add(target.id)
            elif kind == "stream":
                list_names.add(target.id)
    for node in walk_own_scope(execute):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        kind = classify_return(node.value, buffer_names, list_names)
        if kind is not None and kind != produces:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "kind-vs-return",
                    f"{cls.name}.execute returns a {kind} but the class "
                    f"declares produces={produces!r}",
                )
            )


# ----------------------------------------------------------------------
# R2: TupleBuffer mutation without mutates_input = True
# ----------------------------------------------------------------------
def _taints_from_inputs(func: ast.FunctionDef) -> Set[str]:
    tainted: Set[str] = set()
    for node in ast.walk(func):
        value: Optional[ast.expr] = None
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if (
            target is not None
            and isinstance(target, ast.Name)
            and isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Name)
            and value.value.id == "inputs"
        ):
            tainted.add(target.id)
        if (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Name)
            and node.iter.id == "inputs"
        ):
            tainted.add(node.target.id)
    return tainted


def check_undeclared_mutation(
    path: Path,
    cls: ast.ClassDef,
    findings: List[Finding],
    mutating_methods: Optional[Set[str]] = None,
) -> None:
    if mutating_methods is None:
        mutating_methods = MUTATING_BUFFER_METHODS
    if bool_attr(cls, "mutates_input"):
        return
    execute = next(
        (
            stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "execute"
        ),
        None,
    )
    if execute is None:
        return
    tainted = _taints_from_inputs(execute)
    if not tainted:
        return

    def rooted_in_taint(expr: ast.expr) -> bool:
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return isinstance(expr, ast.Name) and expr.id in tainted

    for node in ast.walk(execute):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr in mutating_methods
                and rooted_in_taint(node.func.value)
            ):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "undeclared-mutation",
                        f"{cls.name}.execute calls .{node.func.attr}() on an "
                        "input buffer but the class does not declare "
                        "mutates_input = True",
                    )
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and rooted_in_taint(target):
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            "undeclared-mutation",
                            f"{cls.name}.execute writes through an input "
                            "buffer but the class does not declare "
                            "mutates_input = True",
                        )
                    )


# ----------------------------------------------------------------------
# R3: raw attribute writes on GLOBAL_METRICS primitives
# ----------------------------------------------------------------------
def _mentions_global_metrics(expr: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == "GLOBAL_METRICS"
        for node in ast.walk(expr)
    )


def check_unlocked_metrics(
    path: Path, tree: ast.Module, findings: List[Finding]
) -> None:
    if path.name == "metrics.py":
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(
                target, (ast.Attribute, ast.Subscript)
            ) and _mentions_global_metrics(target):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "unlocked-metrics",
                        "raw write to a GLOBAL_METRICS primitive bypasses "
                        "its lock; use .inc()/.add()/.set()/.observe()",
                    )
                )


# ----------------------------------------------------------------------
# R4: contract registration completeness (AST-level twin of
# properties.assert_all_registered)
# ----------------------------------------------------------------------
def registered_ops(properties_tree: ast.Module) -> Set[str]:
    ops: Set[str] = set()
    for node in ast.walk(properties_tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "OperatorContract"
        ):
            continue
        for keyword in node.keywords:
            if keyword.arg == "op" and isinstance(keyword.value, ast.Name):
                ops.add(keyword.value.id)
    return ops


def check_registry(
    trees: Dict[Path, ast.Module], findings: List[Finding]
) -> None:
    registry_paths = [
        p for p in trees if p.name == "properties.py" and "lolepop" in str(p)
    ]
    if not registry_paths:
        findings.append(
            Finding(
                Path("src"),
                0,
                "unregistered-operator",
                "lolepop/properties.py (the contract registry) not found",
            )
        )
        return
    # Contracts may be registered from any lolepop module (properties.py
    # holds the core eight; satellite operators register their own).
    ops: Set[str] = set()
    for path, tree in trees.items():
        if "lolepop" in str(path):
            ops |= registered_ops(tree)
    for name, (path, cls) in sorted(lolepop_subclasses(trees).items()):
        if name not in ops:
            findings.append(
                Finding(
                    path,
                    cls.lineno,
                    "unregistered-operator",
                    f"{name} subclasses Lolepop but has no OperatorContract "
                    "registration in the lolepop package",
                )
            )


# ----------------------------------------------------------------------
# R5: plain strings appended to Dag.rewrites (bypasses provenance)
# ----------------------------------------------------------------------
def _is_stringish(expr: ast.expr) -> bool:
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


def check_stringly_rewrites(
    path: Path, tree: ast.Module, findings: List[Finding]
) -> None:
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "rewrites"
            and node.args
            and _is_stringish(node.args[0])
        ):
            continue
        findings.append(
            Finding(
                path,
                node.lineno,
                "stringly-rewrite",
                "plain string appended to Dag.rewrites loses optimizer "
                "provenance; call dag.record_rewrite(...) instead",
            )
        )


# ----------------------------------------------------------------------
def lint(root: Path) -> List[Finding]:
    trees: Dict[Path, ast.Module] = {}
    for path in sorted(root.rglob("*.py")):
        tree = parse_tree(path)
        if tree is not None:
            trees[path] = tree
    findings: List[Finding] = []
    mutating_methods = resolve_mutating_methods(trees)
    for path, tree in trees.items():
        check_unlocked_metrics(path, tree, findings)
        check_stringly_rewrites(path, tree, findings)
        for cls in iter_classes(tree):
            if "Lolepop" not in base_names(cls) and cls.name != "SourceOp":
                continue
            check_kind_vs_return(path, cls, findings)
            check_undeclared_mutation(path, cls, findings, mutating_methods)
    check_registry(trees, findings)
    return findings


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src")
    if not root.exists():
        print(f"no such path: {root}", file=sys.stderr)
        return 2
    findings = lint(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} engine-lint finding(s)", file=sys.stderr)
        return 1
    print("engine lint: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
