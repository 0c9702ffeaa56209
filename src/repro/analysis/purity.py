"""Pass 2 — scatter-phase purity via assignment/aliasing dataflow.

The engine's parallel-execution contract (``execution/parallel.py``)
requires every work function handed to ``ctx.parallel_for`` /
``scheduler.run_region`` to be *pure scatter*: it may mutate only its own
work item and objects it freshly created — never the enclosing
operator's ``self``, never an input buffer beyond what the operator
class's ``mutates_input`` declaration admits, and never module-global or
closure-shared state.
Every region call site is located, its work callable resolved (lambda,
local def, module function, ``Class.method`` reference, bound-method
reference), and every store in the callable's body is traced to a *root
class*:

- ``item``  — the callable's parameters (incl. ``self`` when the callable
  is an unbound task method): morsel state, writes allowed;
- ``fresh`` — objects created in the callable or its enclosing scope
  (calls, literals, comprehensions): per-morsel outputs, writes allowed
  (the engine's disjoint-partition scatter pattern);
- ``self``  — the *enclosing operator's* ``self`` captured by closure:
  writes are ``A2-scatter-self-write`` errors;
- ``input`` — names aliased from the enclosing ``execute``'s ``inputs``:
  writes are ``A2-scatter-input-write`` errors unless the class declares
  ``mutates_input = True``;
- ``global``— module-level mutable state (or ``global``/``nonlocal``
  rebinds): writes are ``A2-scatter-global-write`` errors.

Aliasing propagates through plain assignments (``x = self.buf`` taints
``x`` with the ``self`` class); calls break aliases (``x = list(self.y)``
is fresh).

The same environment, applied to an operator's ``execute`` body itself,
gives rule ``R2-undeclared-mutation``: ``execute`` may not call a buffer
mutator on, or store through, an ``input``-class name unless the class
declares ``mutates_input = True`` — the declaration is what the plan
verifier's buffer-race analysis trusts, so it must not lie. (``spill`` is
not a mutator: it moves bytes to disk without changing the buffer's
logical contents.)
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .astutils import (
    CONTAINER_MUTATORS,
    assign_targets,
    attr_chain,
    attr_root,
    class_constant,
    class_method,
    derive_mutating_methods,
    find_buffer_module,
    iter_py_files,
    operator_classes,
    parse_file,
    walk_own_scope,
)
from .findings import Finding

#: Fallback buffer-mutator set when the scanned tree does not include
#: ``storage/buffer.py`` (synthetic test corpora); mirrors what
#: :func:`derive_mutating_methods` derives from the real source — the
#: agreement is pinned by ``tests/test_analysis.py``.
DEFAULT_BUFFER_MUTATORS = frozenset({
    "set_ordering", "append_columns", "columns_appended", "sort_inplace",
    "sort_permutation", "apply_sort_order", "append_pieces",
    "enable_spilling", "append", "pin", "unpin",
})

_REGION_METHODS = {"parallel_for": 2, "run_region": 3}  # fn-arg position
_SPLIT_METHODS = ("run", "split", "finalize")


def _rhs_class(value: ast.AST, env: Dict[str, str]) -> str:
    """Root class of an assignment RHS under ``env``; calls, literals and
    comprehensions yield fresh objects."""
    if isinstance(value, (ast.IfExp,)):
        left = _rhs_class(value.body, env)
        right = _rhs_class(value.orelse, env)
        for cls in ("self", "input", "global"):
            if left == cls or right == cls:
                return cls
        return "fresh"
    root = attr_root(value)
    if root is None:
        return "fresh"
    return env.get(root, "fresh")


def _scope_env(
    fn: ast.AST,
    base: Dict[str, str],
    param_class: str = "item",
    param_overrides: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Environment for ``fn``'s scope: ``base`` (enclosing scope),
    parameters mapped to ``param_class`` (or their ``param_overrides``
    entry — the enclosing ``execute``'s ``self``/``inputs`` keep their
    operator/input classes), locals classified from their assignment RHS
    with alias propagation."""
    env = dict(base)
    overrides = param_overrides or {}
    args = getattr(fn, "args", None)
    if args is not None:
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        for name in names:
            env[name] = overrides.get(name, param_class)
    # Two rounds of propagation cover chained aliases (x = inputs[0];
    # y = x) without needing flow sensitivity.
    for _ in range(2):
        for node in walk_own_scope(fn):
            if isinstance(node, ast.Assign):
                cls = _rhs_class(node.value, env)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = cls
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                env[element.id] = cls
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = _rhs_class(node.value, env)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                cls = _rhs_class(node.iter, env)
                for root, in [(r,) for r, _ in _iter_target_names(node.target)]:
                    env[root] = cls
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                if isinstance(node.optional_vars, ast.Name):
                    env[node.optional_vars.id] = _rhs_class(
                        node.context_expr, env
                    )
    return env


def _iter_target_names(target: ast.AST):
    if isinstance(target, ast.Name):
        yield target.id, True
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _iter_target_names(element)


class _Module:
    """Per-module context shared by every region call site in it."""

    def __init__(self, path: Path, tree: ast.Module, buffer_mutators: Set[str]):
        self.path = str(path)
        self.tree = tree
        self.mutators = CONTAINER_MUTATORS | buffer_mutators
        self.classes: Dict[str, ast.ClassDef] = {
            node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        self.module_functions: Dict[str, ast.FunctionDef] = {
            node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.mutable_globals: Set[str] = set()
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and isinstance(
                    node.value, (ast.Dict, ast.List, ast.Set, ast.Call)
                ):
                    self.mutable_globals.add(target.id)

    def declares_mutates_input(self, cls: Optional[ast.ClassDef]) -> bool:
        return cls is not None and class_constant(cls, "mutates_input") is True


def _enclosing_env(module: _Module, fn: ast.AST, cls: Optional[ast.ClassDef]) -> Dict[str, str]:
    base: Dict[str, str] = {name: "global" for name in module.mutable_globals}
    args = getattr(fn, "args", None)
    param_names = [a.arg for a in args.args] if args else []
    overrides: Dict[str, str] = {}
    if cls is not None and param_names and param_names[0] == "self":
        overrides["self"] = "self"
    if "inputs" in param_names:
        overrides["inputs"] = "input"
    return _scope_env(
        fn, base, param_class="fresh", param_overrides=overrides
    )


class _CallableCheck:
    __slots__ = ("node", "param_class_self", "label")

    def __init__(self, node: ast.AST, param_class_self: bool, label: str):
        self.node = node
        #: True when the callable's ``self`` parameter is the *work item*
        #: (unbound task method), not the enclosing operator.
        self.param_class_self = param_class_self
        self.label = label


def _local_def(fn: ast.AST, name: str) -> Optional[ast.AST]:
    for node in walk_own_scope(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
    return None


def _mutation_sites(
    scope: ast.AST, mutators: Set[str]
) -> Iterator[Tuple[str, int, str]]:
    """``(root name, line, description)`` of every store *through* a name
    (``x.attr = ...``, ``x[i] = ...``, ``del x[i]``) and every mutator
    call on a name-rooted chain anywhere under ``scope``. Chains that
    bottom out in a call or literal mutate a fresh object and are
    skipped."""
    for node in ast.walk(scope):
        for target in assign_targets(node):
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue  # bare names / tuple elements bind locals
            chain = attr_chain(target)
            if chain is not None:
                yield chain[0], node.lineno, f"store to {'.'.join(chain)}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in mutators:
            chain = attr_chain(node.func)
            if chain is not None:
                yield chain[0], node.lineno, \
                    f"call to mutator {'.'.join(chain)}()"


def _check_callable(
    module: _Module,
    check: _CallableCheck,
    closure_env: Dict[str, str],
    declared_mutation: bool,
    findings: List[Finding],
    symbol: str,
) -> None:
    """Scan one resolved work callable for impure stores."""
    env = _scope_env(
        check.node, closure_env,
        param_class="item",
    )
    if check.param_class_self:
        env["self"] = "item"

    def flag(cls: Optional[str], line: int, what: str) -> None:
        if cls == "self":
            findings.append(Finding(
                "A2-scatter-self-write", module.path, line,
                f"scatter callable {check.label} mutates operator state "
                f"({what}) inside a parallel region — pre-barrier code must "
                f"write only per-morsel outputs",
                symbol=symbol, severity="error",
            ))
        elif cls == "input" and not declared_mutation:
            findings.append(Finding(
                "A2-scatter-input-write", module.path, line,
                f"scatter callable {check.label} mutates an input buffer "
                f"({what}) but the operator does not declare mutates_input",
                symbol=symbol, severity="error",
            ))
        elif cls == "global":
            findings.append(Finding(
                "A2-scatter-global-write", module.path, line,
                f"scatter callable {check.label} mutates module-global or "
                f"closure-shared state ({what}) inside a parallel region",
                symbol=symbol, severity="error",
            ))

    nonlocal_names: Set[str] = set()
    for node in ast.walk(check.node):
        if isinstance(node, ast.Nonlocal):
            nonlocal_names.update(node.names)
        if isinstance(node, ast.Global):
            nonlocal_names.update(node.names)

    for node in ast.walk(check.node):
        for target in assign_targets(node):
            if isinstance(target, ast.Name) and target.id in nonlocal_names:
                flag("global", node.lineno,
                     f"rebinds {target.id} via global/nonlocal")
    for root, line, what in _mutation_sites(check.node, module.mutators):
        flag(env.get(root), line, what)


def _check_execute(
    module: _Module,
    cls: ast.ClassDef,
    execute: ast.AST,
    findings: List[Finding],
) -> None:
    """R2: ``execute`` itself, not only its region callables, may mutate
    an input buffer only under ``mutates_input = True``."""
    env = _enclosing_env(module, execute, cls)
    for root, line, what in _mutation_sites(execute, module.mutators):
        if env.get(root) == "input":
            findings.append(Finding(
                "R2-undeclared-mutation", module.path, line,
                f"{cls.name}.execute mutates an input buffer ({what}) but "
                f"the class does not declare mutates_input = True",
                symbol=f"{cls.name}.execute", severity="error",
            ))


def _resolve_fn_arg(
    module: _Module,
    fn_arg: ast.AST,
    enclosing: ast.AST,
    enclosing_cls: Optional[ast.ClassDef],
    env: Dict[str, str],
) -> Tuple[List[_CallableCheck], List[Finding]]:
    """Resolve the work-callable argument of a region call into bodies to
    analyze, plus any findings produced directly by resolution (mutating
    bound method of a tainted receiver)."""
    checks: List[_CallableCheck] = []
    findings: List[Finding] = []
    if isinstance(fn_arg, ast.Lambda):
        checks.append(_CallableCheck(fn_arg, False, "<lambda>"))
        return checks, findings
    if isinstance(fn_arg, ast.Name):
        target = _local_def(enclosing, fn_arg.id) \
            or module.module_functions.get(fn_arg.id)
        if target is not None:
            checks.append(_CallableCheck(target, False, f"{fn_arg.id}()"))
        return checks, findings
    if isinstance(fn_arg, ast.Attribute):
        receiver = fn_arg.value
        method = fn_arg.attr
        if isinstance(receiver, ast.Name) and receiver.id in module.classes:
            # Unbound task method: Class.method — ``self`` is the item.
            cls = module.classes[receiver.id]
            names = [method]
            if any(m != method and class_method(cls, m) for m in _SPLIT_METHODS):
                names = [m for m in _SPLIT_METHODS if class_method(cls, m)]
                if method not in names:
                    names.append(method)
            for name in names:
                node = class_method(cls, name)
                if node is not None:
                    checks.append(_CallableCheck(
                        node, True, f"{receiver.id}.{name}()"
                    ))
            return checks, findings
        if isinstance(receiver, ast.Name) and receiver.id == "self" \
                and enclosing_cls is not None:
            node = class_method(enclosing_cls, method)
            if node is not None:
                checks.append(_CallableCheck(
                    node, False, f"self.{method}()"
                ))
            return checks, findings
        # Bound method of some object: flag only when the receiver is an
        # input alias and the method mutates (the R2 generalization).
        root = attr_root(receiver)
        if root is not None and env.get(root) == "input" \
                and method in module.mutators:
            findings.append(Finding(
                "A2-scatter-input-write", module.path, fn_arg.lineno,
                f"parallel region runs bound mutator {root}.{method} over an "
                f"input buffer but the operator does not declare "
                f"mutates_input",
                symbol=f"{root}.{method}", severity="error",
            ))
    return checks, findings


def analyze_purity(root) -> List[Finding]:
    """Run pass 2 (``A2-*`` and ``R2``) over every module under ``root``."""
    root = Path(root)
    paths = iter_py_files(root)
    buffer_path = find_buffer_module(paths)
    if buffer_path is not None:
        mutators = derive_mutating_methods(parse_file(buffer_path))
    else:
        mutators = set(DEFAULT_BUFFER_MUTATORS)

    findings: List[Finding] = []
    for path in paths:
        tree = parse_file(path)
        module = _Module(path, tree, mutators)

        for cls in operator_classes(tree):
            execute = class_method(cls, "execute")
            if execute is not None and not module.declares_mutates_input(cls):
                _check_execute(module, cls, execute, findings)

        # Map each function to its (directly) enclosing class, if any.
        enclosing_class: Dict[int, ast.ClassDef] = {}
        for cls in module.classes.values():
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    enclosing_class[id(item)] = cls

        for fn in [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]:
            region_calls = [
                node for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGION_METHODS
            ]
            if not region_calls:
                continue
            cls = enclosing_class.get(id(fn))
            env = _enclosing_env(module, fn, cls)
            declared = module.declares_mutates_input(cls)
            for call in region_calls:
                position = _REGION_METHODS[call.func.attr]
                fn_arg: Optional[ast.AST] = None
                if len(call.args) > position:
                    fn_arg = call.args[position]
                else:
                    for keyword in call.keywords:
                        if keyword.arg == "fn":
                            fn_arg = keyword.value
                if fn_arg is None:
                    continue
                checks, direct = _resolve_fn_arg(
                    module, fn_arg, fn, cls, env
                )
                findings.extend(direct)
                owner = cls.name if cls is not None else fn.name
                for check in checks:
                    # Work-item methods of a task class have no operator
                    # closure; their declared-mutation context comes from
                    # the *task's* class, which holds buffer references as
                    # item state (always allowed via the item root).
                    _check_callable(
                        module, check, env,
                        declared_mutation=declared,
                        findings=findings,
                        symbol=f"{owner}.{check.label.rstrip('()')}",
                    )
    return findings
