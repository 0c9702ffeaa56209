"""Pass 3 — process-shippability classification.

Decides, per registered LOLEPOP, whether its ``execute`` closure state
could cross a process boundary: every instance attribute assigned in the
class (or any of its in-package bases) is classified picklable or not by
assignment dataflow — an attribute bound from a ``Callable``-annotated
parameter, a parameter with a closure-conventional name (``thunk``,
``fn``, ``callback``), or a lambda/local-def is *unpicklable closure
state*; plain data (sequences, ints, expression trees, schemas) ships.

Verdicts:

- ``shippable``    — no blocking attributes; the operator's parameters
  are pure data and could be pickled to a worker process today;
- ``needs_rebind`` — blocked by closure state, but the class exposes a
  ``rebind`` hook that can re-point the closure at a process-local
  evaluator (the SOURCE family: the thunk closes over the parent
  engine's pipeline runner and must be rebuilt on the far side);
- ``blocked``      — closure state with no rebind path.

The report also carries a ``storage`` section: shared-memory
compatibility of :class:`~repro.storage.column.Column` payloads. Numeric
and date columns are flat numpy arrays (shareable via
``multiprocessing.shared_memory`` as-is); string columns are flat int32
codes plus a dictionary whose entry array is the one remaining
``dtype=object`` payload — the report pins every such construction site
under ``storage/`` so the multi-process roadmap item knows what is left
to serialize.

The machine-readable report is committed at ``analysis/shippability.json``
and asserted against a fresh regeneration in CI, so an operator cannot
gain closure state silently.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .astutils import iter_py_files, parse_file, walk_own_scope
from .findings import Finding, norm_path

#: Parameter names conventionally bound to closures in this codebase.
CALLABLE_PARAM_NAMES = frozenset({"thunk", "fn", "callback", "requires", "derive"})

SCHEMA_VERSION = 1


def _callable_annotation(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    try:
        rendered = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "Callable" in rendered


def _callable_params(fn: ast.AST) -> Set[str]:
    """Parameters of ``fn`` that carry callables (annotation or naming
    convention)."""
    names: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is None:
        return names
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg == "self":
            continue
        if _callable_annotation(arg.annotation) or arg.arg in CALLABLE_PARAM_NAMES:
            names.add(arg.arg)
    return names


def classify_unpicklable_attrs(cls: ast.ClassDef) -> List[Tuple[str, int, str]]:
    """``(attr, line, reason)`` for every ``self.<attr> = ...`` in ``cls``
    whose RHS is closure state (first assignment per attr wins)."""
    out: List[Tuple[str, int, str]] = []
    seen: Set[str] = set()
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        callables = _callable_params(method)
        local_defs = {
            node.name for node in walk_own_scope(method)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in walk_own_scope(method):
            if not isinstance(node, ast.Assign):
                continue
            reason: Optional[str] = None
            value = node.value
            if isinstance(value, ast.Lambda):
                reason = f"assigned a lambda in {method.name}()"
            elif isinstance(value, ast.Name):
                if value.id in callables:
                    reason = (
                        f"assigned from Callable parameter {value.id!r} "
                        f"of {method.name}() (closure over engine state)"
                    )
                elif value.id in local_defs:
                    reason = (
                        f"assigned local function {value.id!r} defined in "
                        f"{method.name}()"
                    )
            if reason is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in seen
                ):
                    seen.add(target.attr)
                    out.append((target.attr, node.lineno, reason))
    return out


def _has_method(cls: ast.ClassDef, name: str) -> bool:
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
        for node in cls.body
    )


# ----------------------------------------------------------------------
# Static pass (runs over any tree, incl. synthetic corpora)
# ----------------------------------------------------------------------
def analyze_shippability(root) -> List[Finding]:
    """A3 findings for every operator-like class (defines ``execute``)
    under ``root`` that holds unpicklable closure state."""
    findings: List[Finding] = []
    for path in iter_py_files(Path(root)):
        tree = parse_file(path)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not _has_method(cls, "execute"):
                continue
            rebindable = _has_method(cls, "rebind")
            for attr, line, reason in classify_unpicklable_attrs(cls):
                suffix = (
                    " (rebind() available: needs_rebind, not blocked)"
                    if rebindable else ""
                )
                findings.append(Finding(
                    "A3-unpicklable-attr", str(path), line,
                    f"operator {cls.name} attribute self.{attr} is not "
                    f"process-shippable: {reason}{suffix}",
                    symbol=f"{cls.name}.{attr}", severity="info",
                ))
    return findings


# ----------------------------------------------------------------------
# Report (runtime registry + static classification over each MRO)
# ----------------------------------------------------------------------
def _class_def(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _object_dtype_sites(storage_dir: Path) -> List[dict]:
    sites: List[dict] = []
    for path in sorted(storage_dir.glob("*.py")):
        for node in ast.walk(parse_file(path)):
            if (
                isinstance(node, ast.keyword)
                and node.arg == "dtype"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                sites.append({
                    "path": norm_path(str(path)),
                    "line": node.value.lineno,
                })
    sites.sort(key=lambda s: (s["path"], s["line"]))
    return sites


def build_shippability_report(src_root) -> dict:
    """The committed ``analysis/shippability.json`` payload: one entry per
    contract in :func:`repro.lolepop.properties.registered_contracts`,
    classified by static dataflow over the class's in-package MRO.

    Deterministic: operators sorted by contract name, blocking findings by
    (module, line); no timestamps.
    """
    import inspect

    from ..lolepop import properties  # triggers contract registration
    from ..lolepop.base import Lolepop

    src_root = Path(src_root).resolve()
    tree_cache: Dict[str, ast.Module] = {}

    def module_tree(cls: type) -> Tuple[Optional[str], Optional[ast.Module]]:
        try:
            path = inspect.getsourcefile(cls)
        except TypeError:  # pragma: no cover - builtins
            return None, None
        if path is None:
            return None, None
        if path not in tree_cache:
            tree_cache[path] = parse_file(path)
        return path, tree_cache[path]

    def rel(path: str) -> str:
        resolved = Path(path).resolve()
        try:
            return norm_path(str(resolved.relative_to(src_root)))
        except ValueError:
            return norm_path(path)

    operators: List[dict] = []
    for contract in properties.registered_contracts():
        op_cls = contract.op
        blocking: List[dict] = []
        rebindable = False
        for base in op_cls.__mro__:
            if base in (Lolepop, object) or not issubclass(base, Lolepop):
                continue
            path, tree = module_tree(base)
            if tree is None:
                continue
            cls_node = _class_def(tree, base.__name__)
            if cls_node is None:
                continue
            if _has_method(cls_node, "rebind"):
                rebindable = True
            for attr, line, reason in classify_unpicklable_attrs(cls_node):
                blocking.append({
                    "attr": attr,
                    "defined_in": rel(path),
                    "line": line,
                    "class": base.__name__,
                    "reason": reason,
                })
        # One entry per attr: the most-derived definition wins (MRO order).
        deduped: List[dict] = []
        seen: Set[str] = set()
        for entry in blocking:
            if entry["attr"] not in seen:
                seen.add(entry["attr"])
                deduped.append(entry)
        deduped.sort(key=lambda e: (e["defined_in"], e["line"]))
        if not deduped:
            verdict = "shippable"
        elif rebindable:
            verdict = "needs_rebind"
        else:
            verdict = "blocked"
        operators.append({
            "name": contract.name,
            "op": op_cls.__name__,
            "module": op_cls.__module__,
            "consumes": list(contract.consumes),
            "produces": contract.produces,
            "buffer_role": contract.buffer_role,
            "mutates_input": contract.mutates_input,
            "verdict": verdict,
            "blocking": deduped,
        })
    operators.sort(key=lambda o: o["name"])

    storage = {
        "numeric_columns": "flat numpy arrays; shared-memory compatible as-is",
        "string_columns": (
            "flat int32 code arrays plus a per-column dictionary; only the "
            "dictionary's entry array (dtype=object, one str per distinct "
            "value) must be serialized before crossing a process boundary"
        ),
        "object_dtype_sites": [
            {"path": rel(s["path"]), "line": s["line"]}
            for s in _object_dtype_sites(src_root / "repro" / "storage")
        ],
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "operators": operators,
        "storage": storage,
    }
