"""Plan and result caches for the query service.

Both caches key on *normalized SQL text* — a pre-parse lookup key, not a
plan identity: it exists so a hit can skip the parser, and two spellings of
one plan are two entries — plus a version token describing the catalog
state the entry was built against: **per-table version counters** of the
tables the statement reads plus the catalog's DDL version
(:attr:`repro.storage.table.Catalog.ddl_version`), so DML on one table
does not invalidate plans and results that only touch other tables.

The plan cache holds :class:`PreparedPlan` entries: the parsed AST, the
bound logical plan, and (filled in lazily by the LOLEPOP engine) translated
DAG *templates* per translation-relevant config fingerprint. A hit therefore
skips parse, bind, **and** translate — the engine clones the template
(fresh node instances, rebound SOURCE thunks) instead of re-running the
Figure-2 algorithm. This is the cross-query extension of the paper's
intra-plan reuse: materialized plan fragments become shared state owned by
the service layer.

The result cache is a bounded LRU over finished
:class:`~repro.lolepop.engine.QueryResult` objects for read-only (SELECT)
statements. Entries are returned as-is and must be treated as immutable by
callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..logical.plan import Scan, key_hash, template_key


def normalize_sql(text: str) -> str:
    """Whitespace-collapsed, case-folded form of a statement.

    Case is only folded *outside* quoted regions: string literals
    (``'...'``, with ``''`` escapes) and quoted identifiers (``"..."``)
    keep their exact spelling, so ``SELECT 'A'`` and ``select 'a'`` stay
    distinct while ``SELECT  x`` and ``select x`` coincide.
    """
    out = []
    i = 0
    n = len(text)
    pending_space = False
    while i < n:
        ch = text[i]
        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == quote:
                    if quote == "'" and j + 1 < n and text[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(text[i : j + 1])
            i = j + 1
            continue
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(ch.lower())
        i += 1
    return "".join(out)


def table_deps(plan, catalog) -> Tuple[Tuple[str, int], ...]:
    """``((table, version), ...)`` for every base table the bound ``plan``
    scans, at the tables' current versions (``()`` for no plan: EXPLAIN
    entries are never cached) — what :meth:`PreparedPlan.is_current` later
    validates against."""
    names = set()
    stack = [plan] if plan is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            names.add(node.table_name.lower())
        stack.extend(node.children)
    return tuple((name, catalog.get(name).version) for name in sorted(names))


class PreparedPlan:
    """One plan-cache entry: everything derivable from SQL text + catalog.

    ``dag_templates`` maps ``(config fingerprint, region sequence number)``
    to a pristine translated :class:`~repro.lolepop.base.Dag`. Templates are
    never executed — the engine clones them per run — so concurrent
    executions of the same statement stay independent.
    """

    __slots__ = (
        "sql",
        "normalized",
        "statement",
        "plan",
        "catalog_version",
        "ddl_version",
        "table_deps",
        "cacheable",
        "dag_templates",
        "est_rows",
        "_fingerprints",
    )

    def __init__(
        self,
        sql: str,
        statement,
        plan,
        catalog_version: int,
        table_deps: Tuple[Tuple[str, int], ...],
        ddl_version: int,
        cacheable: bool = True,
    ):
        self.sql = sql
        self.normalized = normalize_sql(sql)
        self.statement = statement
        self.plan = plan
        #: Catalog-wide version at build time; informational only (the
        #: ``cache.evict`` breadcrumb reports it), never validated against.
        self.catalog_version = catalog_version
        #: Per-table dependency versions ``((table, version), ...)`` at build
        #: time, paired with the catalog's DDL version.
        self.table_deps = table_deps
        self.ddl_version = ddl_version
        self.cacheable = cacheable
        self.dag_templates: Dict[Tuple, object] = {}
        #: Cached root-cardinality estimate for telemetry Q-error tracking:
        #: ``None`` = not computed yet, ``< 0`` = estimation failed (don't
        #: retry every execution). Valid for this entry's catalog version.
        self.est_rows: Optional[float] = None
        self._fingerprints: Dict[Tuple, str] = {}

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
        version and every depended-on table's version must match the values
        recorded at build time."""
        if getattr(catalog, "ddl_version", None) != self.ddl_version:
            return False
        for table_name, version in self.table_deps:
            try:
                table = catalog.get(table_name)
            except Exception:
                return False
            if table.version != version:
                return False
        return True

    def dep_token(self, catalog) -> Tuple:
        """Hashable summary of the *current* versions of this statement's
        table dependencies — the version component of result-cache keys.
        Reading live versions (not the build-time snapshot) means a result
        cached before DML on a depended-on table can never be served after
        it, while DML on unrelated tables leaves the key unchanged."""
        token: list = [getattr(catalog, "ddl_version", None)]
        for table_name, _ in self.table_deps:
            try:
                token.append((table_name, catalog.get(table_name).version))
            except Exception:
                token.append((table_name, None))
        return tuple(token)

    def store_template(self, key: Tuple, dag, config) -> None:
        """Insert a pristine clone of ``dag`` as the template for ``key``.

        Under ``verify_plans="strict"`` the clone is verified *at insert
        time* — including that every SOURCE still carries the logical plan
        :meth:`~repro.lolepop.base.SourceOp.rebind` needs — so a broken
        template is rejected here, where it is attributable, instead of
        failing on some later cache hit.
        """
        template = dag.clone()
        if getattr(config, "verify_plans", "off") == "strict":
            from ..lolepop.verify import verify_dag

            verify_dag(
                template,
                require_rebindable=True,
                context="plan-cache template insert",
            )
        self.dag_templates[key] = template


class _LruCache:
    """Thread-safe bounded LRU (shared machinery of both caches)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional ``callback(key, value)`` invoked (outside the lock) for
        #: every capacity eviction — the telemetry layer hooks this to emit
        #: ``cache.evict`` flight-recorder events. Version-invalidation
        #: ``clear()`` does not fire it: that is a correctness event, not a
        #: capacity one.
        self.on_evict = None

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key, value) -> None:
        evicted = []
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False))
                self.evictions += 1
        if self.on_evict is not None:
            for evicted_key, evicted_value in evicted:
                try:
                    self.on_evict(evicted_key, evicted_value)
                except Exception:  # noqa: BLE001 — observers never break puts
                    pass

    def discard(self, key) -> None:
        """Drop one entry if present (stale-entry invalidation; does not
        count as a capacity eviction and does not fire ``on_evict``)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PlanCache(_LruCache):
    """LRU of :class:`PreparedPlan` keyed on normalized SQL text.

    Version validation happens at lookup time via
    :meth:`PreparedPlan.is_current`, so entries survive DML on tables they
    do not read. A stale hit is discarded and counts as a miss."""

    def lookup(
        self,
        sql: str,
        catalog,
        build: Callable[[], PreparedPlan],
    ) -> Tuple[PreparedPlan, bool]:
        """Return ``(entry, was_hit)``; on a miss, ``build()`` runs outside
        the lock (parse + bind may be slow) and the built entry is inserted
        if cacheable. Races between identical misses are benign — the last
        insert wins and both callers hold a valid entry."""
        key = normalize_sql(sql)
        entry = self.get(key)
        if entry is not None:
            if entry.is_current(catalog):
                return entry, True
            # Stale entry: reclassify the raw LRU hit as a miss.
            with self._lock:
                self.hits -= 1
                self.misses += 1
            self.discard(key)
        entry = build()
        if entry.cacheable:
            self.put(key, entry)
        return entry, False


class ResultCache(_LruCache):
    """LRU of finished query results for read-only statements.

    Keyed on (normalized SQL, the statement's per-table dependency token
    :meth:`PreparedPlan.dep_token`, engine); results whose row count exceeds
    ``max_rows`` are not stored (they would evict many small, frequently
    repeated results for one scan-the-world query).
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
