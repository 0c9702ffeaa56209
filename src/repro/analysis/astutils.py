"""Shared stdlib-``ast`` helpers for the analysis passes.

Everything here is pure syntax-tree bookkeeping: root-name resolution for
assignment/aliasing dataflow, lock-held traversal for the lockset pass,
operator-class lookup for the contract rules, and the derivation of the
buffer-mutator method set from ``storage/buffer.py`` source (so the set
cannot drift from the implementation).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Method names that mutate their receiver on Python's builtin containers
#: (and, by the engine's naming convention, on its own structures).
CONTAINER_MUTATORS = frozenset({
    "append", "extend", "add", "update", "pop", "popitem", "clear",
    "setdefault", "remove", "discard", "insert", "appendleft", "popleft",
    "sort", "reverse",
})

#: threading primitives whose construction marks a lock attribute.
LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
})

#: Module-level constructors of shared mutable containers.
MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "deque", "defaultdict", "OrderedDict", "Counter",
})

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def parse_file(path) -> ast.Module:
    source = Path(path).read_text()
    return ast.parse(source, filename=str(path))


def iter_py_files(root) -> List[Path]:
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py"))


def walk_own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """All descendants of ``node`` without entering nested function,
    lambda, or class scopes (their returns and assignments belong to the
    closure, not to the scope under analysis)."""
    for child in ast.iter_child_nodes(node):
        yield child
        if isinstance(child, _SCOPE_NODES):
            continue
        yield from walk_own_scope(child)


def own_functions(tree: ast.AST) -> List[ast.AST]:
    """Every function/lambda anywhere in ``tree`` (each analyzed as its
    own scope by the passes)."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]


def assign_targets(node: ast.AST) -> List[ast.AST]:
    """The store/delete targets of an assignment-like statement (empty
    for every other node)."""
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


# ----------------------------------------------------------------------
# Class lookups
# ----------------------------------------------------------------------
#: Base-class names that make a class a plan operator for the contract
#: rules (``SourceOp`` is the one operator base that is itself subclassed).
OPERATOR_BASES = frozenset({"Lolepop", "SourceOp"})


def operator_classes(tree: ast.AST) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            call_terminal_name(base) in OPERATOR_BASES for base in node.bases
        ):
            yield node


def class_method(cls: ast.ClassDef, name: str) -> Optional[ast.AST]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


def class_constant(cls: ast.ClassDef, name: str):
    """The literal a class body assigns to ``name`` (``produces =
    "buffer"``, ``mutates_input = True``); ``None`` when the attribute is
    absent or not a literal."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Constant) and any(
            isinstance(t, ast.Name) and t.id == name for t in targets
        ):
            return value.value
    return None


# ----------------------------------------------------------------------
# Root-name resolution
# ----------------------------------------------------------------------
def attr_root(node: ast.AST) -> Optional[str]:
    """The base ``Name`` id of an Attribute/Subscript/Name chain, or
    ``None`` when the chain bottoms out in a call/literal (a fresh
    object, not an alias of anything)."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("self", "chunks")`` for ``self.chunks[i]``; ``None`` when the
    chain does not bottom out in a Name. Subscripts are transparent."""
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        else:
            return None


def target_roots(target: ast.AST) -> Iterator[Tuple[Optional[str], bool]]:
    """Yield ``(root_name, is_bare_rebind)`` for every assignment target.

    ``is_bare_rebind`` is True for a plain ``Name`` target (binds a local
    — only a mutation of shared state under a ``global`` declaration);
    False for a store *through* the root (``x.attr = ...``,
    ``x[i] = ...``) which always mutates the object ``root`` points at.
    """
    if isinstance(target, ast.Name):
        yield target.id, True
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from target_roots(element)
    elif isinstance(target, ast.Starred):
        yield from target_roots(target.value)
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        yield attr_root(target), False


def call_terminal_name(func: ast.AST) -> Optional[str]:
    """``deque`` for both ``deque(...)`` and ``collections.deque(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def lock_name(expr: ast.AST) -> Optional[str]:
    """A lock identity for a ``with`` context expression: a module-level
    name (``_POOLS_LOCK``) or a self attribute (``self._lock``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    chain = attr_chain(expr)
    if chain and chain[0] == "self" and len(chain) == 2:
        return f"self.{chain[1]}"
    return None


def iter_with_held(
    node: ast.AST, held: frozenset = frozenset()
) -> Iterator[Tuple[ast.AST, frozenset]]:
    """Yield ``(descendant, locks_held)`` over ``node``'s own scope,
    tracking ``with <lock>:`` nesting (including a ``with`` directly
    inside another ``with``). Nested function/class scopes are skipped —
    they are separate scopes analyzed on their own (a closure defined
    under a lock does not *run* under it)."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        names = set()
        for item in node.items:
            yield item.context_expr, held
            yield from iter_with_held(item.context_expr, held)
            name = lock_name(item.context_expr)
            if name is not None:
                names.add(name)
        inner = held | frozenset(names)
        for stmt in node.body:
            yield stmt, inner
            yield from iter_with_held(stmt, inner)
        return
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPE_NODES):
            yield child, held
            continue
        yield child, held
        yield from iter_with_held(child, held)


def global_decls(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in walk_own_scope(fn):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


# ----------------------------------------------------------------------
# Buffer-mutator derivation
# ----------------------------------------------------------------------
#: Spill machinery: moves rows from memory to disk without changing
#: logical contents; calling it on a foreign buffer is resource
#: management, not a contract-relevant mutation. (Reads of a spilled
#: partition are transient and mutate nothing.)
SPILL_MACHINERY = frozenset({"spill", "spill_over_budget"})

#: Physical-layout-only methods: rewrite the chunk list (compaction)
#: without changing logical row order or schema, so read paths like
#: ``ordered_batch`` that compact lazily are not contract mutations.
PHYSICAL_ONLY = frozenset({"compact"})


def derive_mutating_methods(
    tree: ast.Module, class_names: Sequence[str] = ("BufferPartition", "TupleBuffer")
) -> Set[str]:
    """Public methods of the buffer classes that mutate ``self`` state,
    derived from assignment dataflow over the class source.

    A method is a mutator when its own scope stores to ``self`` (plain,
    augmented, or through a subscript/attribute chain rooted at self),
    calls a container mutator on a self-rooted chain, or calls another
    method already classified as a mutator on self. ``__init__``,
    private helpers, spill machinery, and physical-layout-only methods
    are exempt (see :data:`SPILL_MACHINERY` / :data:`PHYSICAL_ONLY`).
    """
    exempt = SPILL_MACHINERY | PHYSICAL_ONLY | {"__init__"}
    methods: Dict[str, ast.FunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in class_names:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.setdefault(item.name, item)

    def directly_mutates(fn: ast.AST) -> bool:
        for node in walk_own_scope(fn):
            for target in assign_targets(node):
                for root, bare in target_roots(target):
                    if root == "self" and not bare:
                        return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                chain = attr_chain(node.func)
                if (
                    chain
                    and chain[0] == "self"
                    and len(chain) > 2  # self.<state>.<mutator>(...)
                    and node.func.attr in CONTAINER_MUTATORS
                ):
                    return True
        return False

    mutators: Set[str] = {
        name for name, fn in methods.items()
        if name not in exempt and directly_mutates(fn)
    }
    # Transitive closure over self.<method>() calls within the classes.
    changed = True
    while changed:
        changed = False
        for name, fn in methods.items():
            if name in mutators or name in exempt:
                continue
            for node in walk_own_scope(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in mutators
                ):
                    mutators.add(name)
                    changed = True
                    break
    return {name for name in mutators if not name.startswith("_")}


def find_buffer_module(paths: Sequence[Path]) -> Optional[Path]:
    for path in paths:
        normalized = str(path).replace("\\", "/")
        if normalized.endswith("storage/buffer.py"):
            return path
    return None
