"""Plan and result caches for the query service.

Both caches key on a statement's **skeleton** (:func:`repro.sql.lexer.skeleton`):
its text with whitespace collapsed, comments dropped, case folded outside
quoted identifiers and every numeric or string literal replaced by a typed
marker — a *pre-parse* key, so a hit skips the parser. Beside it comes the
**slot vector**, the literals' texts. Both caches pair the catalog's DDL
version (:attr:`repro.storage.table.Catalog.ddl_version`) with the
**per-table version counters** (rows written) of the tables the statement
reads, so DML on one table leaves plans and results over other tables
valid. A result names a data snapshot and needs equal versions. A plan
names no data — the binder reads schemas, SOURCE and Scan read the table
when they run — and the one choice that reads data, §3.3's priced
DISTINCT lowering, reads statistics: so a plan stays current while the
statistics it could have been priced on do, under the one staleness rule
:func:`repro.stats.is_stale`.

The plan cache holds :class:`PreparedPlan` entries: the parsed AST, the
bound logical plan, and (filled in lazily by the LOLEPOP engine) translated
DAG *templates* per translation-relevant config fingerprint. One entry
serves every statement of its skeleton whose **pinned** slots hold the same
texts; the key is ``(skeleton, pinned slot texts)``. A slot is **free** when
its value reaches execution through exactly one literal leaf of the bound
plan that the relational executor evaluates on every run — a Filter
predicate or Project item below some region's SOURCE or above the top
region. Every other slot is pinned: a value the parser or binder reads
(LIMIT, an ORDER BY ordinal, a percentile fraction, a frame or lag offset,
a negative number folded into its literal), a value the binder compared
while merging equal expressions, a leaf baked into a LOLEPOP (the
Project WINDOW and ORDER BY absorb, a lag default), every leaf below a
region when the database reuses materialized state (capture specs and
views name the plan), and a slot whose literal appears twice or not at all.

A hit with other free-slot texts binds them into a copy of the entry's
plan (:meth:`PreparedPlan.bind`) and skips parse, bind, **and** translate
— the engine clones the template, rebasing every SOURCE onto the copy,
instead of re-running the Figure-2 algorithm. The plan is *generic*, and
the bound on what that costs is this: a template hit reuses the DISTINCT
lowering the translator priced for the first statement's literals (§3.3's
re-sort or hash pair); both lowerings give identical answers, so a free
Filter slot that moves the estimated input across the decision boundary
can cost speed but never correctness; and an entry re-prices once its
tables have moved enough to re-collect their statistics, as it does on a
feedback drift re-plan. This is the
cross-query extension of the paper's intra-plan reuse: materialized plan
fragments become shared state owned by the service layer.

The result cache is a bounded LRU over finished
:class:`~repro.lolepop.engine.QueryResult` objects for read-only (SELECT)
statements, keyed on the skeleton *and* the slot vector. Entries are
returned as-is and must be treated as immutable by callers.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Optional, Tuple

from ..bounded import Lru
from ..expr.nodes import Literal, rewrite, slotted_literals
from ..logical.plan import (
    Aggregate,
    Filter,
    Limit,
    Project,
    Scan,
    Sort,
    Window,
    key_hash,
    template_key,
)
from ..sql.binder import rebind_literal
from ..sql.lexer import fill, skeleton
from ..stats import is_stale

#: A statement's ``(skeleton, slot vector)``, ``None`` when it has none.
Shape = Optional[Tuple[str, Tuple[str, ...]]]


def table_deps(plan, catalog) -> Tuple[Tuple[str, int, int], ...]:
    """``((table, version, rows), ...)`` for every base table the bound
    ``plan`` scans, at the tables' current versions and row counts (``()``
    for no plan: EXPLAIN entries are never cached) — what
    :meth:`PreparedPlan.is_current` later validates against."""
    names = set()
    stack = [plan] if plan is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            names.add(node.table_name.lower())
        stack.extend(node.children)
    tables = [(name, catalog.get(name)) for name in sorted(names)]
    return tuple((name, table.version, table.num_rows) for name, table in tables)


def _free_slots(plan, reuse: bool) -> Dict[int, Tuple[Literal, Tuple[int, ...]]]:
    """Slot → (its one leaf, ids of the plan nodes from the root down to
    the node holding it), for every slot of the bound ``plan`` whose only
    leaf the relational executor evaluates on every run (see the module
    docstring; ``reuse``: the database reuses materialized state). Slots
    the binder pinned are the caller's to drop."""
    leaves: Dict[int, list] = {}
    stack = [(plan, None, False, ())]
    while stack:
        node, parent, in_region, path = stack.pop()
        path += (id(node),)
        # The translator writes a Project between Sort / Aggregate and a
        # Window into the WINDOW or SCAN it builds: baked into the template.
        absorbed = (
            isinstance(node, Project)
            and isinstance(parent, (Sort, Aggregate))
            and isinstance(node.child, Window)
        )
        evaluated = (
            isinstance(node, (Filter, Project))
            and not absorbed
            and not (reuse and in_region)
        )
        for expr in node.expressions():
            for leaf in slotted_literals(expr):
                leaves.setdefault(leaf.slot, []).append((leaf, evaluated, path))
        in_region = in_region or isinstance(node, (Aggregate, Window, Sort, Limit))
        stack.extend((child, node, in_region, path) for child in node.children)
    return {
        slot: (leaf, path)
        for slot, [(leaf, evaluated, path), *more] in leaves.items()
        if evaluated and not more
    }


def _substitute(node, values: Dict[int, Literal], paths, forward: Dict[int, object]):
    """``node`` with the leaves ``values`` names (by ``id``) swapped in.
    ``paths`` maps the ``id`` of each node holding one to ``True``, of each
    ancestor to ``False``: those are copied (recorded in ``forward``,
    ``id`` of the original → copy), every other subtree is shared."""
    holder = paths.get(id(node))
    if holder is None:
        return node
    children = [_substitute(child, values, paths, forward) for child in node.children]
    attrs: dict = {}
    if holder:
        swap = lambda expr: values.get(id(expr))  # noqa: E731
        if isinstance(node, Filter):
            attrs["predicate"] = rewrite(node.predicate, swap)
        else:
            attrs["items"] = [(name, rewrite(expr, swap)) for name, expr in node.items]
    twin = forward[id(node)] = node.replaced(children, **attrs)
    return twin


class PreparedPlan:
    """One plan-cache entry: everything derivable from SQL text + catalog —
    or, from :meth:`bind`, a *variant* of one for another statement of its
    skeleton.

    ``dag_templates`` maps ``(config fingerprint, region sequence number)``
    to a pristine translated :class:`~repro.lolepop.base.Dag`. Templates are
    never executed — the engine clones them per run — so concurrent
    executions of the same statement stay independent. A variant shares
    the entry's templates, fingerprints and AST (whose literals are the
    entry's) and has its own plan, slots and estimate.

    A template keeps the §3.3 DISTINCT lowering it was translated with.
    The entry, templates and root estimate included, stays current across
    appends until a table it reads is stale (:func:`repro.stats.is_stale`:
    the churn that re-collects the statistics the lowering was priced on)
    or DDL moves the catalog. When the feedback store calibrates an
    estimate across the decision boundary, EXPLAIN (which translates
    afresh) shows the other path while cached executions keep the old one,
    until a drift re-plan or that churn drops the templates. Drift reads
    the root Q-error, so a misestimate below the root that the store
    corrects may never trigger one. Both lowerings give identical answers,
    so this bound costs speed, never correctness.

    Under ``reuse`` a template names the captured snapshot its SOURCEs
    read, so such an entry needs equal table versions instead.
    """

    __slots__ = (
        "sql",
        "skeleton",
        "slots",
        "pinned",
        "key",
        "statement",
        "plan",
        "ddl_version",
        "table_deps",
        "exact",
        "cacheable",
        "dag_templates",
        "est_rows",
        "_fingerprints",
        "_free",
        "_paths",
        "_forward",
        "_normalized",
    )

    def __init__(
        self,
        sql: str,
        statement,
        plan,
        table_deps: Tuple[Tuple[str, int, int], ...],
        ddl_version: int,
        cacheable: bool = True,
        shape: Shape = None,
        pinned=(),
        reuse: bool = False,
    ):
        self.sql = sql
        shape = shape or skeleton(sql)
        #: ``sql``'s skeleton and slot vector (:func:`repro.sql.lexer.skeleton`).
        self.skeleton, self.slots = shape if shape is not None else (None, ())
        self.statement = statement
        self.plan = plan
        #: Per-table dependencies ``((table, version, rows), ...)`` at build
        #: time, paired with the catalog's DDL version.
        self.table_deps = table_deps
        self.ddl_version = ddl_version
        #: Validate on equal table versions (a ``reuse`` template).
        self.exact = reuse
        self.cacheable = cacheable and self.skeleton is not None
        free = _free_slots(plan, reuse) if plan is not None and self.slots else {}
        #: Free slot → its leaf in ``plan``; ``pinned`` are the binder's.
        self._free = {slot: found[0] for slot, found in free.items() if slot not in pinned}
        paths = [free[slot][1] for slot in self._free]
        #: ``id`` of each plan node holding a free leaf → True, of each of
        #: their ancestors → False: what :meth:`bind` copies.
        self._paths = {node: False for path in paths for node in path[:-1]}
        self._paths.update((path[-1], True) for path in paths)
        #: Slot numbers whose texts are part of the plan-cache key.
        self.pinned = tuple(i for i in range(len(self.slots)) if i not in self._free)
        #: The plan-cache key, once the entry is cached.
        self.key: Optional[Tuple] = None
        self.dag_templates: Dict[Tuple, object] = {}
        #: Cached root-cardinality estimate for telemetry Q-error tracking:
        #: ``None`` = not computed yet, ``< 0`` = estimation failed (don't
        #: retry every execution). Valid while :meth:`is_current` holds,
        #: i.e. while the statistics it was estimated on are current.
        self.est_rows: Optional[float] = None
        self._fingerprints: Dict[Tuple, str] = {}
        #: A variant's ``id`` of entry plan node → its own copy; ``None``
        #: for an entry.
        self._forward: Optional[Dict[int, object]] = None
        self._normalized: Optional[str] = None

    @property
    def normalized(self) -> str:
        """The statement's own normalized text, its literals included: the
        telemetry name of the statement."""
        if self._normalized is None:
            self._normalized = (
                fill(self.skeleton, self.slots)
                if self.skeleton is not None
                else self.sql.strip()
            )
        return self._normalized

    def bind(self, sql: str, slots: Tuple[str, ...]) -> "PreparedPlan":
        """This entry for ``sql``, a statement of its skeleton with the same
        pinned slot texts (``slots`` is its slot vector): the entry itself
        when the free slots' texts match too, else a variant whose plan
        holds ``sql``'s own literals — no parse, bind or translate.

        Raises ``ValueError`` when a slot text cannot take its leaf's type
        (an invalid date): the caller then plans ``sql`` from scratch, which
        raises the statement's own error."""
        if slots == self.slots:
            return self
        values = {
            id(leaf): rebind_literal(leaf, slots[slot])
            for slot, leaf in self._free.items()
        }
        variant = copy.copy(self)
        variant.sql, variant.slots = sql, slots
        variant.est_rows = variant._normalized = None
        variant._forward = {}
        variant.plan = _substitute(self.plan, values, self._paths, variant._forward)
        return variant

    def rebased(self, node):
        """The node of this plan that stands where ``node`` stands in the
        entry's plan (``node`` itself for an entry, or for a subtree the
        variant shares)."""
        if self._forward is None:
            return node
        return self._forward.get(id(node), node)

    def fingerprint(self, engine: str, config) -> str:
        """The statement's telemetry fingerprint: the hash of (engine, the
        plan's template key, the config's translation identity). Literal-only
        variants of one statement share it; computed once per entry and
        (engine, config identity), never per execution."""
        variant = (engine, config.translation_fingerprint())
        fingerprint = self._fingerprints.get(variant)
        if fingerprint is None:
            fingerprint = key_hash(variant + (template_key(self.plan.key()),))
            self._fingerprints[variant] = fingerprint
        return fingerprint

    def is_current(self, catalog) -> bool:
        """Is this entry still valid against ``catalog``? The catalog's DDL
        version must match the one recorded at build time, and no
        depended-on table may be stale (:func:`repro.stats.is_stale`) since
        then — or, for an :attr:`exact` entry, have moved at all."""
        if getattr(catalog, "ddl_version", None) != self.ddl_version:
            return False
        for table_name, version, rows in self.table_deps:
            try:
                table = catalog.get(table_name)
            except Exception:
                return False
            if table.version != version if self.exact else is_stale(version, rows, table):
                return False
        return True

    def dep_token(self, catalog) -> Tuple:
        """Hashable summary of the *current* versions of this statement's
        table dependencies — the version component of result-cache keys.
        Reading live versions (not the build-time snapshot) means a result
        cached before DML on a depended-on table can never be served after
        it, while DML on unrelated tables leaves the key unchanged."""
        token: list = [getattr(catalog, "ddl_version", None)]
        for table_name, *_ in self.table_deps:
            try:
                token.append((table_name, catalog.get(table_name).version))
            except Exception:
                token.append((table_name, None))
        return tuple(token)

    def store_template(self, key: Tuple, dag, config) -> None:
        """Insert a pristine clone of ``dag`` as the template for ``key``.
        The clone holds its nodes in topological order, so the clone each
        hit makes (:meth:`~repro.lolepop.base.Dag.clone`) sorts nothing.

        Under ``verify_plans="strict"`` the clone is verified *at insert
        time* — including that every SOURCE still carries the logical plan
        :meth:`~repro.lolepop.base.SourceOp.rebind` needs — so a broken
        template is rejected here, where it is attributable, instead of
        failing on some later cache hit. A variant stores nothing: its
        DAG names the variant's plan, not the entry's.
        """
        if self._forward is not None:
            return
        template = dag.clone()
        if getattr(config, "verify_plans", "off") == "strict":
            from ..lolepop.verify import verify_dag

            verify_dag(
                template,
                require_rebindable=True,
                context="plan-cache template insert",
            )
        self.dag_templates[key] = template


class PlanCache(Lru):
    """LRU of :class:`PreparedPlan` keyed on ``(skeleton, pinned slot
    texts)`` (see the module docstring).

    Validation happens at lookup time via :meth:`PreparedPlan.is_current`,
    so entries survive DML on tables they do not read and appends below the
    staleness threshold on tables they do. A stale hit is discarded and
    counts as a miss."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        #: Skeleton → the slot numbers its entries pin: which texts of a
        #: new statement make its key. Bounded like the entries.
        self._pinned = Lru(capacity)

    def lookup(
        self,
        sql: str,
        catalog,
        build: Callable[[Shape], PreparedPlan],
    ) -> Tuple[PreparedPlan, bool]:
        """Return ``(entry, was_hit)`` — on a hit, the entry bound to
        ``sql``'s literals (:meth:`PreparedPlan.bind`). On a miss,
        ``build(shape)`` (``shape``: ``sql``'s skeleton and slot vector)
        runs outside the lock (parse + bind may be slow) and the built
        entry is inserted if cacheable. Races between identical misses are
        benign — the last insert wins and both callers hold a valid entry."""
        shape = skeleton(sql)
        pinned = self._pinned.peek(shape[0]) if shape is not None else None
        # ``None`` is never a key: an unknown skeleton is counted as a miss.
        key = None if pinned is None else (shape[0], tuple(shape[1][i] for i in pinned))
        entry = self.get(key)
        if entry is not None:
            current = entry.is_current(catalog)
            if current:
                try:
                    return entry.bind(sql, shape[1]), True
                except ValueError:
                    pass
            # Stale entry, or a slot text it cannot take: a miss after all.
            with self._lock:
                self.hits -= 1
                self.misses += 1
            if not current:
                self.discard(key)
        entry = build(shape)
        if entry.cacheable:
            entry.key = (entry.skeleton, tuple(entry.slots[i] for i in entry.pinned))
            self._pinned.put(entry.skeleton, entry.pinned)
            self.put(entry.key, entry)
        return entry, False


class ResultCache(Lru):
    """LRU of finished query results for read-only statements.

    Keyed on (skeleton, slot vector, the statement's per-table dependency
    token :meth:`PreparedPlan.dep_token`, engine); results whose row count
    exceeds ``max_rows`` are not stored (they would evict many small,
    frequently repeated results for one scan-the-world query).
    """

    def __init__(self, capacity: int, max_rows: int = 100_000):
        super().__init__(capacity)
        self.max_rows = max_rows

    def admit(self, key: Tuple, result) -> bool:
        """Store ``result`` unless it is over the row bound; returns whether
        it was cached."""
        if len(result) > self.max_rows:
            return False
        self.put(key, result)
        return True
