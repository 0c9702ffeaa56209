"""Persistent cardinality-feedback store: the closed Q-error loop.

Every executed query contributes *actuals*: the rows it returned, and
when it was traced the output rows of each executed SOURCE, HASHAGG and
ORDAGG. Each actual answers one question the
:class:`~repro.logical.cardinality.CardinalityEstimator` asks — how many
rows does this plan return (:meth:`FeedbackStore.rows_for`), how many
groups do these keys form over this plan (:meth:`~FeedbackStore.groups_for`)
— and is kept under that question's *signature*: the hash of the logical
subplan's :meth:`~repro.logical.plan.LogicalPlan.key`, literals included.
Once a signature has been observed, its smoothed actual overrides the
statistics-model estimate. The slots are grouped by plan fingerprint,
one small schema-validated JSON file per fingerprint under a feedback
directory (``REPRO_FEEDBACK_DIR`` or the ``Database``'s ``feedback_dir``),
so they survive restarts.

The store also owns the drift→replan decision
(:meth:`FeedbackStore.record_execution`): when the workload profiler's
template for the statement is drifting
(:meth:`~repro.observability.workload.TemplateStats.drifting`, the rule
the telemetry report's ``drifting`` list applies too), the caller is told
to drop its cached plan so the next execution re-plans — now against the
calibrated estimator.

Durability model: actuals are advisory, so writes are throttled (first
observation per fingerprint flushes immediately, then every
:data:`FLUSH_INTERVAL`-th) and atomic (temp file + ``os.replace``). A corrupt
or partial file is tolerated on load — skipped with a
``feedback.load_error`` flight-recorder event — and the on-disk footprint
is bounded twice: a file holds at most
:data:`MAX_SIGNATURES_PER_FINGERPRINT` slots (the least recently observed
goes), and the directory at most :data:`MAX_FILES` files (the entries are
a :class:`~repro.bounded.Lru` whose eviction unlinks the file, a
``feedback.evict`` event). Loading inserts the files in ``updated`` order,
so the LRU order survives a restart.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..bounded import Lru
from ..logical.plan import key_hash
from ..lolepop.base import SourceOp
from ..lolepop.hashagg_op import HashAggOp
from ..lolepop.ordagg_op import OrdAggOp
from .analyze import _region_input_plan

__all__ = [
    "SCHEMA_VERSION",
    "FeedbackStore",
    "plan_signature",
    "group_signature",
]

#: 4: slots are keyed by signature (3 keyed them by operator position, so
#: literal variants of one fingerprint blended their actuals); 3: the ROOT
#: observation had its own slot; 2: signatures are hashes of
#: :meth:`LogicalPlan.key`. Older files are skipped on load.
SCHEMA_VERSION = 4

#: Exponential smoothing factor for actual row counts (matches the
#: workload profiler's recency bias).
ACTUAL_ALPHA = 0.3

_FILE_PREFIX = "fb_"
_FILE_SUFFIX = ".json"

#: Fingerprint files kept in the feedback directory.
MAX_FILES = 256

#: Per-fingerprint slot cap: a statement run with many literal sets keeps
#: its most recently observed signatures, and its file stays a few KB.
MAX_SIGNATURES_PER_FINGERPRINT = 64

#: After a fingerprint's first flush, every this-many-th observation of it
#: flushes its file.
FLUSH_INTERVAL = 8

#: After a drift-triggered replan, the same template's next one waits for
#: this many further executions, so a persistently drifting template does
#: not discard its plan on every query.
REPLAN_INTERVAL = 8

#: One execution's actual for one estimator question.
Observation = Tuple[str, float]


def plan_signature(plan) -> str:
    """Calibration signature of a logical plan: the hash of its full
    :meth:`~repro.logical.plan.LogicalPlan.key`. Two queries with the same
    plan shape *and the same constants* share a signature — deliberately,
    since selectivity feedback is only transferable at that granularity."""
    return key_hash(plan.key())


def group_signature(plan, keys: Iterable[str]) -> str:
    """Signature of a group-count estimate: the input plan plus the key
    set (order-insensitive — ``GROUP BY a, b`` and ``GROUP BY b, a``
    produce the same count)."""
    names = tuple(sorted(name.lower() for name in keys))
    return key_hash(("group", names, plan.key()))


def _operator_signature(node, context) -> Optional[str]:
    """The calibration signature of one executed LOLEPOP, when its output
    cardinality maps onto an estimator question (SOURCE → plan rows,
    HASHAGG/ORDAGG → group count); ``None`` for pure buffer movers."""
    if isinstance(node, SourceOp) and getattr(node, "plan", None) is not None:
        return plan_signature(node.plan)
    if isinstance(node, (HashAggOp, OrdAggOp)) and context is not None:
        return group_signature(context, node.key_names)
    return None


def _traced_observations(dags) -> List[Observation]:
    """The measured output rows of every executed node of a traced run
    whose cardinality answers an estimator question."""
    observations: List[Observation] = []
    for dag in dags:
        context = _region_input_plan(getattr(dag, "region_plan", None))
        for node in dag.topological_order():
            signature = None if node.span is None else _operator_signature(node, context)
            if signature is not None:
                observations.append((signature, float(node.span.attrs["rows_out"])))
    return observations


class _Slot:
    """The smoothed actual rows of one signature."""

    __slots__ = ("rows", "observations")

    def __init__(self, rows: float, observations: int = 1):
        self.rows = rows
        self.observations = observations

    def update(self, rows: float) -> None:
        self.rows = (1.0 - ACTUAL_ALPHA) * self.rows + ACTUAL_ALPHA * rows
        self.observations += 1


class _FingerprintFeedback:
    __slots__ = ("fingerprint", "sql", "updated", "slots", "pending")

    def __init__(self, fingerprint: str, sql: str):
        self.fingerprint = fingerprint
        self.sql = sql
        self.updated = 0.0
        #: signature -> slot, least recently observed first.
        self.slots: Dict[str, _Slot] = {}
        #: Observations folded in since this process created or loaded it
        #: (the flush throttle's count).
        self.pending = 0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "sql": self.sql,
            "updated": self.updated,
            "slots": {
                signature: {"rows": slot.rows, "observations": slot.observations}
                for signature, slot in self.slots.items()
            },
        }


def load_document(path: str) -> _FingerprintFeedback:
    """Read and validate one ``fb_*.json`` file: the store's loader and
    ``tools/telemetry_report.py`` both go through here. Raises ``OSError``,
    ``ValueError`` or ``TypeError`` for a file the store would skip."""
    with open(path, "r", encoding="utf-8") as handle:
        return _validate_document(json.load(handle))


def _validate_document(doc: object) -> _FingerprintFeedback:
    """Parse one on-disk feedback document, raising ``ValueError`` on any
    schema violation (the caller turns that into a tolerated skip)."""
    if not isinstance(doc, dict):
        raise ValueError("feedback document is not an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported feedback schema_version {doc.get('schema_version')!r}"
        )
    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise ValueError("feedback document missing fingerprint")
    slots = doc.get("slots")
    if not isinstance(slots, dict):
        raise ValueError("feedback document missing slots object")
    entry = _FingerprintFeedback(fingerprint, str(doc.get("sql", "")))
    entry.updated = float(doc.get("updated", 0.0))
    for signature, payload in slots.items():
        if not isinstance(payload, dict) or "rows" not in payload:
            raise ValueError(f"slot {signature} has no rows")
        entry.slots[signature] = _Slot(
            float(payload["rows"]), int(payload.get("observations", 1))
        )
    return entry


class FeedbackStore:
    """Persistent smoothed actuals per estimator-question signature.

    Thread-safe; all mutation happens under one lock (queries complete
    concurrently under the service layer), re-entered by the entries'
    ``on_evict``. Loading never raises: a corrupt or partial file is
    skipped with a ``feedback.load_error`` event.
    """

    def __init__(self, directory: str, telemetry=None):
        self.directory = directory
        self._telemetry = telemetry
        self._lock = threading.RLock()
        self._entries = Lru(MAX_FILES)
        self._entries.on_evict = self._evicted
        #: signature -> the most-observed slot carrying it, so a
        #: calibration lookup is one dict probe instead of a store scan.
        self._signature_index: Dict[str, _Slot] = {}
        os.makedirs(directory, exist_ok=True)
        self._load()

    # -- events ---------------------------------------------------------
    def _event(self, kind: str, **fields) -> None:
        if self._telemetry is not None:
            self._telemetry.recorder.record(kind, **fields)

    # -- persistence ----------------------------------------------------
    def _path(self, fingerprint: str) -> str:
        return os.path.join(
            self.directory, f"{_FILE_PREFIX}{fingerprint}{_FILE_SUFFIX}"
        )

    def _load(self) -> None:
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        loaded = []
        for name in names:
            if not (name.startswith(_FILE_PREFIX) and name.endswith(_FILE_SUFFIX)):
                continue
            try:
                loaded.append(load_document(os.path.join(self.directory, name)))
            except (OSError, ValueError, TypeError) as exc:
                self._event("feedback.load_error", file=name, error=str(exc))
        with self._lock:
            for entry in sorted(loaded, key=lambda e: e.updated):
                self._entries.put(entry.fingerprint, entry)
                for signature, slot in entry.slots.items():
                    self._index_locked(signature, slot)

    def _index_locked(self, signature: str, slot: _Slot) -> None:
        existing = self._signature_index.get(signature)
        if existing is None or slot.observations >= existing.observations:
            self._signature_index[signature] = slot

    def _unindex_locked(self, signature: str, slot: _Slot) -> None:
        """``slot`` left the store: if the index pointed at it, point it at
        the most-observed slot of ``signature`` still kept, if any."""
        if self._signature_index.get(signature) is not slot:
            return
        del self._signature_index[signature]
        for entry in self._entries.values():
            kept = entry.slots.get(signature)
            if kept is not None:
                self._index_locked(signature, kept)

    def _evicted(self, fingerprint: str, entry: _FingerprintFeedback) -> None:
        """The entries' ``on_evict``: the file and the index slots go with
        the entry."""
        try:
            os.unlink(self._path(fingerprint))
        except OSError:
            pass
        self._event("feedback.evict", fingerprint=fingerprint)
        with self._lock:
            for signature, slot in entry.slots.items():
                self._unindex_locked(signature, slot)

    def _flush_locked(self, entry: _FingerprintFeedback) -> None:
        path = self._path(entry.fingerprint)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry.to_dict(), handle, indent=1)
            os.replace(tmp, path)
        except OSError:
            # Advisory data: a failed flush must never fail the query.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- recording ------------------------------------------------------
    def record_execution(self, record, prepared, result, template) -> bool:
        """The store's one entry point, reached from
        :meth:`~repro.observability.telemetry.Telemetry.record_execution`
        for every successful execution that had a plan: fold the run's
        actuals in (the rows returned under the plan's signature, and the
        traced nodes' rows when the run was traced), then decide from
        ``template`` — the workload profiler's aggregate for this
        fingerprint — whether the estimates have drifted far enough to
        re-plan. On drift the prepared plan's cached estimate and DAG
        templates are dropped, a ``feedback.replan`` breadcrumb is emitted
        and ``True`` tells the caller to discard its plan-cache entry, so
        the next execution plans against the now-calibrated estimator."""
        observations = [(plan_signature(prepared.plan), float(record.rows))]
        if result.trace is not None:
            observations += _traced_observations(result.dags)
        self.observe(record.fingerprint, record.sql, observations)
        if not template.drifting():
            return False
        with self._lock:
            last = template.replanned_at
            if last is not None and template.count - last < REPLAN_INTERVAL:
                return False
            template.replanned_at = template.count
        prepared.est_rows = None
        prepared.dag_templates.clear()
        self._event(
            "feedback.replan",
            fingerprint=record.fingerprint,
            drift_ratio=template.drift_ratio(),
            sql=record.sql,
        )
        return True

    def observe(
        self, fingerprint: str, sql: str, observations: List[Observation]
    ) -> None:
        """Fold one execution's ``(signature, actual rows)`` observations
        into the store and flush the fingerprint's file per the throttle
        policy. A signature observed twice in one execution counts once."""
        if not observations:
            return
        with self._lock:
            entry = self._entries.get_or_put(
                fingerprint, lambda: _FingerprintFeedback(fingerprint, sql)
            )
            entry.updated = time.time()
            slots = entry.slots
            for signature, rows in dict(observations).items():
                slot = slots.pop(signature, None)  # re-inserted as the newest
                if slot is None:
                    slot = _Slot(rows)
                else:
                    slot.update(rows)
                slots[signature] = slot
                self._index_locked(signature, slot)
            while len(slots) > MAX_SIGNATURES_PER_FINGERPRINT:
                oldest = next(iter(slots))
                self._unindex_locked(oldest, slots.pop(oldest))
            if entry.pending % FLUSH_INTERVAL == 0:
                self._flush_locked(entry)
            entry.pending += 1

    def flush(self) -> None:
        """Write every in-memory entry to disk (shutdown / test hook)."""
        with self._lock:
            for entry in self._entries.values():
                self._flush_locked(entry)

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def fingerprints(self) -> List[str]:
        return sorted(entry.fingerprint for entry in self._entries.values())

    def get(self, fingerprint: str) -> Optional[dict]:
        with self._lock:
            entry = self._entries.peek(fingerprint)
            return None if entry is None else entry.to_dict()

    # -- calibration ----------------------------------------------------
    # The feedback-source protocol of
    # :class:`~repro.logical.cardinality.CardinalityEstimator`: a live view,
    # so estimates sharpen as executions accumulate.
    def rows_for(self, plan) -> Optional[float]:
        """Smoothed observed output rows of ``plan``, if it ever ran."""
        return self._lookup_signature(plan_signature(plan))

    def groups_for(self, plan, keys) -> Optional[float]:
        """Smoothed observed group count of ``keys`` over ``plan``."""
        return self._lookup_signature(group_signature(plan, keys))

    def _lookup_signature(self, signature: str) -> Optional[float]:
        with self._lock:
            slot = self._signature_index.get(signature)
            return None if slot is None else slot.rows
