"""Pass 1 — lockset inference over shared mutable state.

Inventories module-level mutable containers and long-lived-object
attributes across the service-layer packages (``execution/``,
``server/``, ``observability/``, ``reuse/``, ``storage/``), infers which
lock guards each piece of state from existing ``with <lock>:`` usage,
and flags accesses outside the inferred lockset. All code in these
packages is reachable from ``ParallelScheduler`` workers or
``QueryService`` session threads (the service executes queries on
arbitrary session threads against process-global registries), so every
function body is treated as concurrently reachable.

Two granularities:

- **module globals** (``_POOLS`` in ``execution/parallel.py``): a global
  touched under a module-level lock somewhere acquires that lock as its
  lockset; any mutation elsewhere without it is an error
  (``A1-unlocked-global-write``); unguarded reads are inventory
  (``A1-unlocked-global-read``, info). Mutable globals written from
  function code with *no* lock anywhere are ``A1-unguarded-global``
  (info) — an inventory entry, not a gate, because single-threaded
  build paths legitimately exist.

- **instance attributes** of classes that own a lock (``self._lock =
  threading.Lock()``): an attribute accessed under the lock in one
  method and written outside it in another is ``A1-unlocked-attr-write``
  (error); unguarded reads are info. ``__init__``/``__new__`` are exempt
  (the object is not shared before construction completes).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .astutils import (
    CONTAINER_MUTATORS,
    LOCK_FACTORIES,
    MUTABLE_FACTORIES,
    attr_chain,
    attr_root,
    call_terminal_name,
    global_decls,
    iter_with_held,
    own_functions,
    parse_file,
    walk_own_scope,
)
from .findings import Finding

#: Packages whose code runs on worker / session threads.
SCAN_PACKAGES = ("execution", "server", "observability", "reuse", "storage")


def scan_paths(root) -> List[Path]:
    """The ``*.py`` files pass 1 covers under ``root`` (a src dir, the
    ``repro`` package dir, or any directory of synthetic modules)."""
    root = Path(root)
    package = root / "repro" if (root / "repro").is_dir() else root
    files: List[Path] = []
    for name in SCAN_PACKAGES:
        subdir = package / name
        if subdir.is_dir():
            files.extend(sorted(subdir.rglob("*.py")))
    if not files:  # synthetic corpus: analyze every module in the tree
        files = sorted(package.rglob("*.py"))
    return files


def _is_mutable_rhs(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        return call_terminal_name(value.func) in MUTABLE_FACTORIES
    return False


def _is_lock_rhs(value: ast.AST) -> bool:
    return (
        isinstance(value, ast.Call)
        and call_terminal_name(value.func) in LOCK_FACTORIES
    )


class _Access:
    __slots__ = ("name", "line", "kind", "held", "where")

    def __init__(self, name: str, line: int, kind: str, held: frozenset, where: str):
        self.name = name
        self.line = line
        self.kind = kind  # "write" | "read"
        self.held = held
        self.where = where  # enclosing function name, for messages


def _function_accesses(
    fn: ast.AST,
    names: Set[str],
    fn_label: str,
    self_attrs: bool,
    base_held: frozenset = frozenset(),
) -> List[_Access]:
    """Accesses to ``names`` in ``fn``'s own scope with lock-held sets.

    ``self_attrs=False``: names are module globals, accessed as bare
    ``Name`` nodes; a bare-name rebind counts as a write only under a
    ``global`` declaration. ``self_attrs=True``: names are instance
    attributes, accessed as ``self.<name>`` chains.
    """
    accesses: List[_Access] = []
    declared = global_decls(fn) if not self_attrs else set()
    base_held = frozenset(base_held)

    def chain_key(node: ast.AST) -> Optional[str]:
        if self_attrs:
            chain = attr_chain(node)
            if chain and chain[0] == "self" and len(chain) >= 2:
                return chain[1] if chain[1] in names else None
            return None
        root = attr_root(node)
        return root if root in names else None

    for node, held in iter_with_held(fn, base_held):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign):
            targets: List[ast.AST] = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        else:
            targets = []
        for target in targets:
            key = chain_key(target)
            if key is None:
                continue
            if isinstance(target, ast.Name) and not self_attrs:
                if key in declared:
                    accesses.append(
                        _Access(key, node.lineno, "write", held, fn_label)
                    )
                continue
            if self_attrs and isinstance(target, ast.Attribute):
                chain = attr_chain(target)
                # ``self.x = ...`` and ``self.x[i] = ...`` both mutate the
                # shared object; for AugAssign ``self.x += 1`` likewise.
                accesses.append(
                    _Access(key, node.lineno, "write", held, fn_label)
                )
                continue
            if not isinstance(target, ast.Name):
                accesses.append(
                    _Access(key, node.lineno, "write", held, fn_label)
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # G.update(...) / self.x.append(...): mutation through a
            # method call on the tracked object.
            key = chain_key(node.func.value)
            if key is not None and node.func.attr in CONTAINER_MUTATORS:
                accesses.append(
                    _Access(key, node.lineno, "write", held, fn_label)
                )
        if not self_attrs:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    accesses.append(
                        _Access(node.id, node.lineno, "read", held, fn_label)
                    )
        else:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in names
            ):
                accesses.append(
                    _Access(node.attr, node.lineno, "read", held, fn_label)
                )
    return accesses


def _emit(
    path: str,
    accesses: List[_Access],
    guards: Dict[str, Set[str]],
    symbol_prefix: str,
    rule_stub: str,
    exempt_fns: Set[str],
) -> List[Finding]:
    findings: List[Finding] = []
    for access in accesses:
        if access.where in exempt_fns:
            continue
        guard = guards.get(access.name, set())
        if not guard:
            continue
        if access.held & guard:
            continue
        symbol = f"{symbol_prefix}{access.name}"
        lock_list = "/".join(sorted(guard))
        if access.kind == "write":
            findings.append(Finding(
                f"A1-unlocked-{rule_stub}-write", path, access.line,
                f"write to {symbol} in {access.where}() without holding "
                f"{lock_list} (its inferred lockset)",
                symbol=symbol, severity="error",
            ))
        else:
            findings.append(Finding(
                f"A1-unlocked-{rule_stub}-read", path, access.line,
                f"read of {symbol} in {access.where}() without holding "
                f"{lock_list}",
                symbol=symbol, severity="info",
            ))
    return findings


def analyze_module_globals(tree: ast.Module, path: str) -> List[Finding]:
    globals_: Dict[str, int] = {}
    locks: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            name = node.target.id
            value = node.value
        else:
            continue
        if _is_lock_rhs(value):
            locks.add(name)
        elif _is_mutable_rhs(value):
            globals_[name] = node.lineno
    if not globals_:
        return []

    accesses: List[_Access] = []
    for fn in own_functions(tree):
        label = getattr(fn, "name", "<lambda>")
        accesses.extend(
            _function_accesses(fn, set(globals_), label, self_attrs=False)
        )

    guards: Dict[str, Set[str]] = {}
    for access in accesses:
        held_locks = {h for h in access.held if h in locks}
        if held_locks:
            guards.setdefault(access.name, set()).update(held_locks)

    findings = _emit(path, accesses, guards, "", "global", exempt_fns=set())
    # Inventory: mutable globals mutated from function code with no lock
    # discipline anywhere in the module.
    for name, line in sorted(globals_.items()):
        writes = [a for a in accesses if a.name == name and a.kind == "write"]
        if writes and name not in guards:
            findings.append(Finding(
                "A1-unguarded-global", path, line,
                f"module-level mutable {name} is mutated by "
                f"{writes[0].where}() with no lock anywhere in the module",
                symbol=name, severity="info",
            ))
    return findings


def analyze_class_attrs(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [
            item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs: Set[str] = set()
        for method in methods:
            for node in walk_own_scope(method):
                if isinstance(node, ast.Assign) and _is_lock_rhs(node.value):
                    for target in node.targets:
                        chain = attr_chain(target)
                        if chain and chain[0] == "self" and len(chain) == 2:
                            lock_attrs.add(chain[1])
        if not lock_attrs:
            continue
        # Every non-lock attribute this class assigns anywhere.
        attrs: Set[str] = set()
        for method in methods:
            for node in walk_own_scope(method):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        chain = attr_chain(target)
                        if chain and chain[0] == "self" and len(chain) >= 2:
                            attrs.add(chain[1])
        attrs -= lock_attrs
        if not attrs:
            continue

        lock_keys = {f"self.{name}" for name in lock_attrs}

        # Called-under-lock inference: a *private* helper whose every
        # ``self._helper(...)`` call site in the class holds a common lock
        # runs under that lock (``_drop_entry`` called only from inside
        # ``with self._lock:`` blocks). Fixpoint so helpers calling
        # helpers inherit too; a private method with no intra-class call
        # site keeps an empty base (conservative).
        base_held: Dict[str, frozenset] = {}
        for _ in range(len(methods) or 1):
            changed = False
            sites: Dict[str, List[frozenset]] = {}
            for method in methods:
                caller_base = base_held.get(method.name, frozenset())
                for node, held in iter_with_held(method, caller_base):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        and node.func.attr.startswith("_")
                    ):
                        sites.setdefault(node.func.attr, []).append(
                            frozenset(h for h in held if h in lock_keys)
                        )
            for name, helds in sites.items():
                common = frozenset.intersection(*helds) if helds else frozenset()
                if common and base_held.get(name, frozenset()) != common:
                    base_held[name] = common
                    changed = True
            if not changed:
                break

        accesses: List[_Access] = []
        for method in methods:
            base = base_held.get(method.name, frozenset())
            accesses.extend(_function_accesses(
                method, attrs, method.name, self_attrs=True, base_held=base
            ))
            # Closures inside methods share self; analyze them too.
            for fn in own_functions(method):
                if fn is not method:
                    accesses.extend(_function_accesses(
                        fn, attrs, method.name, self_attrs=True,
                        base_held=base,
                    ))

        guards: Dict[str, Set[str]] = {}
        for access in accesses:
            held_locks = {h for h in access.held if h in lock_keys}
            if held_locks:
                guards.setdefault(access.name, set()).update(held_locks)
        findings.extend(_emit(
            path, accesses, guards, f"{cls.name}.", "attr",
            exempt_fns={"__init__", "__new__"},
        ))
    return findings


def analyze_shared_state(root) -> List[Finding]:
    """Run pass 1 over every service-layer module under ``root``."""
    findings: List[Finding] = []
    for path in scan_paths(root):
        tree = parse_file(path)
        findings.extend(analyze_module_globals(tree, str(path)))
        findings.extend(analyze_class_attrs(tree, str(path)))
    return findings
