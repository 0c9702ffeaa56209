"""The cross-query materialization manager.

Owns two stores keyed on the plan keys
(:meth:`~repro.logical.plan.LogicalPlan.key`) of reusable fragments
(:mod:`repro.reuse.signature`):

- **Buffer cache** — materialized :class:`~repro.storage.TupleBuffer`
  snapshots keyed on (fragment signature, partition keys, partition
  count, morsel size) plus the buffer's per-partition
  ordering. The translator substitutes a
  :class:`~repro.lolepop.reuse_op.CachedBufferOp` for a PARTITION (or
  PARTITION→SORT) whose spec has a fresh entry; PARTITION and SORT offer
  their outputs back after executing. An entry is only served when the
  substitution is **byte-identical** to recomputation: exact spec match
  and an ordering that is either empty (the PARTITION output itself) or
  exactly the ordering the downstream SORT would impose.
- **Aggregate views** — incrementally-maintained GROUP BY state
  (:mod:`repro.reuse.views`), registered once a fragment+grouping has
  been requested ``view_min_uses`` times, delta-maintained through
  per-table mutation observers (insert-only merge; truncation and DDL
  invalidate), and able to answer *coarser* groupings (GROUPING
  SETS/ROLLUP/CUBE subsets) by re-aggregation.

Eviction is cost-aware LRU over both stores: score =
bytes × age ÷ (1 + rebuild cost from :mod:`repro.costmodel`)
÷ (1 + request popularity from a manager-owned
:class:`~repro.observability.workload.WorkloadStats`); the
highest-scoring entry goes first until resident bytes fit the budget.

Thread-safety: one manager lock orders all store mutations; view
building and maintenance additionally run under the owning table's lock
(table lock → manager lock, never the reverse). Telemetry events
(``reuse.hit`` / ``reuse.miss`` / ``reuse.evict`` / ``reuse.maintain``)
flow through the flight recorder when a telemetry sink is attached.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..storage.buffer import TupleBuffer
from .signature import apply_stages, source_chain
from .views import (
    ViewState,
    analyze_view,
    build_state,
    merge_states,
    serve_plan,
)


class ReuseConfig:
    """Tunables of the materialization manager."""

    def __init__(
        self,
        budget_bytes: int = 64 * 1024 * 1024,
        view_min_uses: int = 2,
        enable_buffers: bool = True,
        enable_views: bool = True,
        workload_capacity: int = 256,
    ):
        #: Resident-byte ceiling across both stores; the cost-aware LRU
        #: evicts down to it on every insert.
        self.budget_bytes = budget_bytes
        #: How many times a fragment+grouping must be requested before
        #: its aggregate view is materialized (1 = build on first sight).
        self.view_min_uses = view_min_uses
        self.enable_buffers = enable_buffers
        self.enable_views = enable_views
        #: Capacity of the manager-owned workload profiler that tracks
        #: per-key request counts for eviction.
        self.workload_capacity = workload_capacity


class CaptureSpec:
    """Identity of one buffer-materialization site.

    Everything that decides the buffer's exact bytes is part of the key:
    the fragment's plan key (table, columns read, stage expressions), the
    partition keys and count, the morsel size (batch boundaries decide
    round-robin placement and chunk order). The table
    version pins the data snapshot the signature was taken against.

    ``num_partitions`` is the plan's cap: a keyed PARTITION builds
    ``partition_count(rows, num_partitions)`` partitions, a function of the
    fragment's row count, which the signature and table version pin. The
    spec therefore still names one byte-identical buffer, and a miss
    recomputed by :class:`~repro.lolepop.reuse_op.CachedBufferOp` gets the
    same count. Spilling buffers, whose count is the cap, are never
    captured.
    """

    __slots__ = (
        "signature",
        "table_name",
        "partition_keys",
        "num_partitions",
        "morsel_size",
        "schema_names",
        "table_version",
    )

    def __init__(
        self,
        signature: Tuple,
        table_name: str,
        partition_keys: Tuple[str, ...],
        num_partitions: int,
        morsel_size: int,
        schema_names: Tuple[str, ...],
        table_version: int,
    ):
        self.signature = signature
        self.table_name = table_name
        self.partition_keys = partition_keys
        self.num_partitions = num_partitions
        self.morsel_size = morsel_size
        self.schema_names = schema_names
        self.table_version = table_version

    @property
    def key(self) -> Tuple:
        return (
            self.signature,
            self.partition_keys,
            self.num_partitions,
            self.morsel_size,
        )

    def describe(self) -> str:
        keys = ",".join(self.partition_keys) or "round-robin"
        return f"{self.table_name} [{keys} x{self.num_partitions}]"


class _BufferEntry:
    __slots__ = (
        "spec_key",
        "table_name",
        "table",
        "table_version",
        "ordered_by",
        "buffer",
        "bytes",
        "rows",
        "uses",
        "last_used",
        "fingerprint",
        "label",
    )

    def __init__(self, spec: CaptureSpec, table, buffer: TupleBuffer, tick: int):
        self.spec_key = spec.key
        self.table_name = spec.table_name
        self.table = table
        self.table_version = spec.table_version
        self.ordered_by = tuple(buffer.ordered_by)
        self.buffer = buffer
        self.bytes = buffer.approx_bytes()
        self.rows = buffer.num_rows
        self.uses = 0
        self.last_used = tick
        self.fingerprint = ("buffer", self.spec_key, self.ordered_by)
        self.label = spec.describe()

    def rebuild_cost(self) -> float:
        from ..costmodel import sort_cost

        cost = float(self.rows)  # re-scatter
        if self.ordered_by:
            cost += sort_cost(self.rows)
        return cost


class _ViewEntry:
    __slots__ = (
        "key",
        "core",
        "projection",
        "table_name",
        "table",
        "stages",
        "group_cols",
        "agg_ids",
        "state",
        "bytes",
        "uses",
        "last_used",
        "fingerprint",
    )

    def __init__(
        self, key, core, projection, table_name, table, stages, group_cols,
        agg_ids, state: ViewState, tick: int,
    ):
        self.key = key
        self.core = core
        self.projection = projection
        self.table_name = table_name
        self.table = table
        self.stages = stages
        self.group_cols = tuple(group_cols)
        self.agg_ids = tuple(agg_ids)
        self.state = state
        self.bytes = state.approx_bytes()
        self.uses = 0
        self.last_used = tick
        self.fingerprint = ("view", key)

    def rebuild_cost(self) -> float:
        from ..costmodel import hash_aggregation_cost

        return hash_aggregation_cost(
            max(self.state.source_rows, 1), max(self.state.num_groups, 1)
        )

    def describe(self) -> str:
        aggs = ",".join(
            f"{func}({arg or '*'})" for func, arg in self.agg_ids
        )
        return (
            f"{self.table_name} GROUP BY ({','.join(self.group_cols)}) "
            f"[{aggs}]"
        )


def snapshot_buffer(buffer: TupleBuffer) -> TupleBuffer:
    """A shallow, independently mutable copy of ``buffer``.

    Safe because every in-place buffer mutation in the engine is
    container-level: sorts and compaction *replace* a partition's chunk
    list / permutation array, and never write into an existing numpy
    array or Batch. Sharing the chunk Batches between the snapshot and
    the live buffer is therefore free.
    """
    copy = TupleBuffer(
        buffer.schema, buffer.num_partitions, buffer.partitioned_by
    )
    for src, dst in zip(buffer.partitions, copy.partitions):
        dst.schema = src.schema
        dst.chunks = list(src.chunks)
        dst.permutation = src.permutation
        dst.key_cache = dict(src.key_cache)
    copy.set_ordering(buffer.ordered_by)
    return copy


class MaterializationManager:
    """Property-keyed buffer cache + incrementally-maintained views."""

    def __init__(self, catalog, config: Optional[ReuseConfig] = None, telemetry=None):
        self.catalog = catalog
        self.config = config or ReuseConfig()
        self.telemetry = telemetry
        self._lock = threading.RLock()
        #: spec key -> {ordered_by tuple -> _BufferEntry}
        self._buffers: Dict[Tuple, Dict[Tuple, _BufferEntry]] = {}
        #: view key -> _ViewEntry
        self._views: Dict[Tuple, _ViewEntry] = {}
        #: view key -> request count (registration threshold)
        self._view_requests: Dict[Tuple, int] = {}
        #: table id -> (table, observer) for installed mutation observers
        self._observed: Dict[int, Tuple] = {}
        from ..observability.workload import WorkloadStats

        #: Popularity tracker keyed on reuse-entry fingerprints; its
        #: per-template counts weigh the eviction score.
        self.workload = WorkloadStats(self.config.workload_capacity)
        self._tick = 0
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.maintenance_s = 0.0
        self.maintenance_events = 0

    # ------------------------------------------------------------------
    # Buffer cache
    # ------------------------------------------------------------------
    def capture_spec(
        self, source_plan, keys, num_partitions, config
    ) -> Optional[CaptureSpec]:
        """The capture spec for a PARTITION site over ``source_plan``, or
        ``None`` when the fragment shape or config is not cacheable."""
        if not self.config.enable_buffers:
            return None
        if getattr(config, "memory_budget_bytes", None) is not None:
            return None  # spilling buffers are never cached
        chain = source_chain(source_plan)
        if chain is None:
            return None
        scan, _ = chain
        try:
            table = self.catalog.get(scan.table_name)
        except Exception:
            return None
        return CaptureSpec(
            source_plan.key(),
            scan.table_name.lower(),
            tuple(keys),
            num_partitions,
            config.morsel_size,
            tuple(f.name for f in source_plan.schema),
            table.version,
        )

    def lookup_buffer(
        self, spec: CaptureSpec, required_order=None
    ) -> Optional[Tuple]:
        """Translate-time probe: the ordering of a fresh, byte-identical
        entry for ``spec``, or ``None``. Acceptable orderings: exactly
        the downstream sort's keys (the sort then elides at runtime), or
        the empty ordering (the raw PARTITION output)."""
        acceptable: List[Tuple] = []
        if required_order:
            acceptable.append(
                tuple((name, bool(desc)) for name, desc in required_order)
            )
        acceptable.append(())
        with self._lock:
            self._tick += 1
            by_ordering = self._buffers.get(spec.key)
            for ordering in acceptable:
                entry = by_ordering.get(ordering) if by_ordering else None
                if entry is None:
                    continue
                if not self._buffer_entry_fresh(entry):
                    self._drop_buffer_entry(entry, reason="stale")
                    continue
                entry.uses += 1
                entry.last_used = self._tick
                self.workload.observe(
                    entry.fingerprint, entry.label, "reuse", 0.0
                )
                return entry.ordered_by
            self.misses += 1
        self._event("reuse.miss", store="buffer", key=spec.describe())
        return None

    def acquire_buffer(
        self, spec: CaptureSpec, ordering: Tuple
    ) -> Optional[TupleBuffer]:
        """Runtime fetch: a private snapshot of the cached buffer, or
        ``None`` when the entry went stale/evicted since translation."""
        with self._lock:
            self._tick += 1
            entry = self._buffers.get(spec.key, {}).get(tuple(ordering))
            if entry is not None and not self._buffer_entry_fresh(entry):
                self._drop_buffer_entry(entry, reason="stale")
                entry = None
            if entry is None:
                self.misses += 1
                label = spec.describe()
            else:
                entry.uses += 1
                entry.last_used = self._tick
                self.hits += 1
                self.workload.observe(
                    entry.fingerprint, entry.label, "reuse", 0.0
                )
                snapshot = snapshot_buffer(entry.buffer)
        if entry is None:
            self._event("reuse.miss", store="buffer", key=label, at="runtime")
            return None
        self._event(
            "reuse.hit", store="buffer", key=entry.label,
            ordering=[list(k) for k in entry.ordered_by],
        )
        return snapshot

    def offer_buffer(self, spec: CaptureSpec, buffer: TupleBuffer) -> bool:
        """Store a snapshot of a just-materialized buffer; returns whether
        it was admitted."""
        if not self.config.enable_buffers:
            return False
        if buffer.spilling:
            return False
        if tuple(f.name for f in buffer.schema) != spec.schema_names:
            return False  # schema drifted (e.g. window-extended buffer)
        try:
            table = self.catalog.get(spec.table_name)
        except Exception:
            return False
        if table.version != spec.table_version:
            return False  # the table moved between translate and execute
        with self._lock:
            self._tick += 1
            by_ordering = self._buffers.setdefault(spec.key, {})
            existing = by_ordering.get(tuple(buffer.ordered_by))
            if existing is not None and self._buffer_entry_fresh(existing):
                return False  # identical fresh entry already resident
            if existing is not None:
                self._drop_buffer_entry(existing, reason="stale")
            entry = _BufferEntry(spec, table, snapshot_buffer(buffer), self._tick)
            by_ordering[entry.ordered_by] = entry
            self.resident_bytes += entry.bytes
            self.workload.observe(entry.fingerprint, entry.label, "reuse", 0.0)
            self._evict_to_budget()
        self._install_observer(table)
        return True

    def _buffer_entry_fresh(self, entry: _BufferEntry) -> bool:
        try:
            live = self.catalog.get(entry.table_name)
        except Exception:
            return False
        return live is entry.table and live.version == entry.table_version

    def _drop_buffer_entry(self, entry: _BufferEntry, reason: str) -> None:
        by_ordering = self._buffers.get(entry.spec_key)
        if by_ordering and by_ordering.get(entry.ordered_by) is entry:
            del by_ordering[entry.ordered_by]
            if not by_ordering:
                del self._buffers[entry.spec_key]
            self.resident_bytes -= entry.bytes
            if reason == "budget":
                self.evictions += 1
            else:
                self.invalidations += 1
            self._event(
                "reuse.evict", store="buffer", key=entry.label,
                bytes=entry.bytes, reason=reason,
            )

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def view_source(self, plan) -> bool:
        """Translate-time decision: can (or should) this Aggregate region
        be answered from a materialized view? Registers demand and builds
        the view once the request count reaches ``view_min_uses``."""
        if not self.config.enable_views:
            return False
        analyzed = analyze_view(plan)
        if analyzed is None:
            return False
        core, projection, group_cols, agg_ids = analyzed
        with self._lock:
            if self._find_view(core, projection, group_cols, agg_ids) is not None:
                return True
            key = (core, projection, frozenset(group_cols), frozenset(agg_ids))
            count = self._view_requests.get(key, 0) + 1
            self._view_requests[key] = count
            if count < self.config.view_min_uses:
                self.misses += 1
                build = False
            else:
                build = True
        if not build:
            self._event("reuse.miss", store="view")
            return False
        return self._build_view(plan, analyzed) is not None

    def serve_view(self, plan) -> List:
        """Runtime serving for a substituted view SOURCE. Rebuilds the
        view when it was evicted or invalidated since translation — a
        substituted DAG must always produce correct output."""
        analyzed = analyze_view(plan)
        if analyzed is None:  # pragma: no cover — translate guaranteed shape
            raise RuntimeError("view SOURCE over an ineligible aggregate plan")
        core, projection, group_cols, agg_ids = analyzed
        with self._lock:
            self._tick += 1
            entry = self._find_view(core, projection, group_cols, agg_ids)
            if entry is not None:
                entry.uses += 1
                entry.last_used = self._tick
                self.hits += 1
                self.workload.observe(
                    entry.fingerprint, entry.describe(), "reuse", 0.0
                )
                state = entry.state
        if entry is None:
            with self._lock:
                self.misses += 1
            self._event("reuse.miss", store="view", at="runtime")
            entry = self._build_view(plan, analyzed)
            if entry is None:  # table vanished between translate and run
                raise RuntimeError(
                    "cannot rebuild materialized view: base table is gone"
                )
            state = entry.state
        else:
            self._event("reuse.hit", store="view", key=entry.describe())
        return serve_plan(state, plan)

    def _find_view(
        self, core, projection, group_cols, agg_ids
    ) -> Optional[_ViewEntry]:
        """Exact or finer (lattice) view covering the request; caller holds
        the lock. Covering = same fragment core, and the request's
        projection/group columns/aggregates are subsets of the view's.
        Prefers the exact grouping, then the smallest covering state."""
        needed_cols = set(group_cols)
        needed_aggs = set(agg_ids)
        needed_proj = set(projection)
        best: Optional[_ViewEntry] = None
        for entry in self._views.values():
            if entry.core != core:
                continue
            if not needed_proj <= set(entry.projection):
                continue
            if not needed_cols <= set(entry.group_cols):
                continue
            if not needed_aggs <= set(entry.agg_ids):
                continue
            if not self._view_entry_fresh(entry):
                continue
            if tuple(entry.group_cols) == tuple(group_cols):
                return entry
            if best is None or entry.state.num_groups < best.state.num_groups:
                best = entry
        return best

    def _view_entry_fresh(self, entry: _ViewEntry) -> bool:
        try:
            live = self.catalog.get(entry.table_name)
        except Exception:
            return False
        return live is entry.table

    def _build_view(self, plan, analyzed) -> Optional[_ViewEntry]:
        core, projection, group_cols, agg_ids = analyzed
        chain = source_chain(plan.child)
        if chain is None:  # pragma: no cover — analyze_view checked this
            return None
        scan, stages = chain
        try:
            table = self.catalog.get(scan.table_name)
        except Exception:
            return None
        started = time.perf_counter()
        with table._lock:
            batch = apply_stages(stages, table.to_batch())
            state = build_state(batch, tuple(group_cols), tuple(agg_ids))
            key = (core, projection, tuple(group_cols), tuple(agg_ids))
            with self._lock:
                self._tick += 1
                existing = self._views.get(key)
                if existing is not None and self._view_entry_fresh(existing):
                    return existing
                if existing is not None:
                    self._drop_view_entry(existing, reason="stale")
                entry = _ViewEntry(
                    key, core, projection, scan.table_name.lower(), table,
                    stages, group_cols, agg_ids, state, self._tick,
                )
                self._views[key] = entry
                self.resident_bytes += entry.bytes
                self.workload.observe(
                    entry.fingerprint, entry.describe(), "reuse", 0.0
                )
                self._evict_to_budget()
        elapsed = time.perf_counter() - started
        with self._lock:
            self.maintenance_s += elapsed
            self.maintenance_events += 1
        self._event(
            "reuse.maintain", store="view", action="build",
            key=entry.describe(), groups=state.num_groups,
        )
        self._install_observer(table)
        return entry

    def _drop_view_entry(self, entry: _ViewEntry, reason: str) -> None:
        if self._views.get(entry.key) is entry:
            del self._views[entry.key]
            self.resident_bytes -= entry.bytes
            if reason == "budget":
                self.evictions += 1
            else:
                self.invalidations += 1
            self._event(
                "reuse.evict", store="view", key=entry.describe(),
                bytes=entry.bytes, reason=reason,
            )

    # ------------------------------------------------------------------
    # Mutation observers (incremental maintenance + invalidation)
    # ------------------------------------------------------------------
    def _install_observer(self, table) -> None:
        with self._lock:
            if id(table) in self._observed:
                return
            name = table.name.lower()

            def observer(kind, batch, _name=name):
                self._on_table_mutation(_name, kind, batch)

            self._observed[id(table)] = (table, observer)
        table.add_observer(observer)

    def _on_table_mutation(self, name: str, kind: str, batch) -> None:
        """Called (under the table lock) after every mutation of an
        observed table: buffer entries over it are dropped eagerly;
        views merge insert deltas and invalidate on anything else."""
        with self._lock:
            for by_ordering in list(self._buffers.values()):
                for entry in list(by_ordering.values()):
                    if entry.table_name == name:
                        self._drop_buffer_entry(entry, reason="invalidated")
            views = [
                e for e in self._views.values() if e.table_name == name
            ]
        for entry in views:
            if kind == "insert" and batch is not None:
                self._maintain_view(entry, batch)
            else:
                with self._lock:
                    self._drop_view_entry(entry, reason="invalidated")

    def _maintain_view(self, entry: _ViewEntry, batch) -> None:
        started = time.perf_counter()
        delta = apply_stages(entry.stages, batch)
        if len(delta):
            delta_state = build_state(delta, entry.group_cols, entry.agg_ids)
            with self._lock:
                if self._views.get(entry.key) is not entry:
                    return  # evicted concurrently
                merged = merge_states(entry.state, delta_state)
                self.resident_bytes -= entry.bytes
                entry.state = merged
                entry.bytes = merged.approx_bytes()
                self.resident_bytes += entry.bytes
                self._evict_to_budget()
        elapsed = time.perf_counter() - started
        with self._lock:
            self.maintenance_s += elapsed
            self.maintenance_events += 1
        self._event(
            "reuse.maintain", store="view", action="delta",
            key=entry.describe(), delta_rows=len(delta),
        )

    # ------------------------------------------------------------------
    # Eviction (cost-aware LRU; caller holds the lock)
    # ------------------------------------------------------------------
    def _all_entries(self) -> List:
        entries: List = []
        for by_ordering in self._buffers.values():
            entries.extend(by_ordering.values())
        entries.extend(self._views.values())
        return entries

    def _score(self, entry) -> float:
        age = max(self._tick - entry.last_used, 0)
        stats = self.workload.get(entry.fingerprint)
        popularity = stats.count if stats is not None else 0
        return (
            float(max(entry.bytes, 1))
            * (1.0 + age)
            / (1.0 + entry.rebuild_cost())
            / (1.0 + popularity)
        )

    def _evict_to_budget(self) -> None:
        budget = self.config.budget_bytes
        while self.resident_bytes > budget:
            entries = self._all_entries()
            if not entries:
                break
            victim = max(entries, key=self._score)
            if isinstance(victim, _BufferEntry):
                self._drop_buffer_entry(victim, reason="budget")
            else:
                self._drop_view_entry(victim, reason="budget")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            buffer_count = sum(len(b) for b in self._buffers.values())
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "resident_bytes": self.resident_bytes,
                "budget_bytes": self.config.budget_bytes,
                "buffers": buffer_count,
                "views": len(self._views),
                "view_requests": sum(self._view_requests.values()),
                "maintenance_s": self.maintenance_s,
                "maintenance_events": self.maintenance_events,
            }

    def list_entries(self) -> List[dict]:
        """One row per resident entry (the shell's ``.reuse list``)."""
        with self._lock:
            rows: List[dict] = []
            for by_ordering in self._buffers.values():
                for entry in by_ordering.values():
                    rows.append(
                        {
                            "kind": "buffer",
                            "key": entry.label,
                            "detail": "ord="
                            + (
                                ",".join(
                                    ("-" if d else "") + n
                                    for n, d in entry.ordered_by
                                )
                                or "none"
                            ),
                            "rows": entry.rows,
                            "bytes": entry.bytes,
                            "uses": entry.uses,
                        }
                    )
            for entry in self._views.values():
                rows.append(
                    {
                        "kind": "view",
                        "key": entry.describe(),
                        "detail": f"groups={entry.state.num_groups}",
                        "rows": entry.state.num_groups,
                        "bytes": entry.bytes,
                        "uses": entry.uses,
                    }
                )
        rows.sort(key=lambda r: (-r["bytes"], r["key"]))
        return rows

    def clear(self) -> int:
        """Drop every resident entry (correctness-neutral); returns the
        number of entries dropped."""
        with self._lock:
            count = sum(len(b) for b in self._buffers.values()) + len(self._views)
            self._buffers.clear()
            self._views.clear()
            self._view_requests.clear()
            self.resident_bytes = 0
        return count

    # ------------------------------------------------------------------
    def _event(self, kind: str, **fields) -> None:
        if self.telemetry is None:
            return
        try:
            self.telemetry.event(kind, **fields)
        except Exception:  # noqa: BLE001 — telemetry never breaks queries
            pass
