"""Persistent cardinality-feedback store: the closed Q-error loop.

Every executed query contributes *actuals* — the rows it returned, and
when it was traced the observed output rows per plan operator — keyed by
``(plan fingerprint, operator position)``. The store
persists them as one small schema-validated JSON file per fingerprint
under a feedback directory (``REPRO_FEEDBACK_DIR`` or the ``Database``'s
``feedback_dir``), survives restarts, and feeds two consumers:

- :class:`~repro.logical.cardinality.CardinalityEstimator`, which
  consults the store (:meth:`FeedbackStore.rows_for` /
  :meth:`~FeedbackStore.groups_for`): once an operator's *plan signature*
  (the hash of the logical subplan's
  :meth:`~repro.logical.plan.LogicalPlan.key`, literals included) has been
  observed, the smoothed actual row count overrides the statistics-model
  estimate.
- the drift→replan decision (:meth:`FeedbackStore.record_execution`): when
  the workload profiler's template for the statement is drifting
  (:meth:`~repro.observability.workload.TemplateStats.drifting`, the rule
  the telemetry report's ``drifting`` list applies too), the caller is
  told to drop its cached plan so the next execution re-plans — now
  against the calibrated estimator — closing the
  loop the :class:`~repro.observability.workload.WorkloadStats` drift
  detector only *reported* before.

Durability model: actuals are advisory, so writes are throttled (first
observation per fingerprint flushes immediately, then every
:data:`FLUSH_INTERVAL`-th) and atomic (temp file + ``os.replace``). A corrupt
or partial file is tolerated on load — skipped with a
``feedback.load_error`` flight-recorder event — and the on-disk footprint
is bounded by ``max_files``: the entries are a :class:`~repro.bounded.Lru`
whose eviction unlinks the file (a ``feedback.evict`` event). Loading
inserts the files in ``updated`` order, so the LRU order survives a
restart.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional

from ..bounded import Lru
from ..logical.plan import key_hash
from ..lolepop.base import SourceOp
from ..lolepop.hashagg_op import HashAggOp
from ..lolepop.ordagg_op import OrdAggOp
from .analyze import _region_input_plan, estimate_dag_rows, q_error

__all__ = [
    "SCHEMA_VERSION",
    "FeedbackStore",
    "plan_signature",
    "group_signature",
    "profile_observations",
]

#: 3: the ROOT observation has its own slot, position -1 (2 shared slot 0
#: with the first operator, blending their row counts); 2: signatures are
#: hashes of :meth:`LogicalPlan.key` (1 concatenated display labels, which
#: truncate). Older files are skipped on load.
SCHEMA_VERSION = 3

#: The slot of the ROOT observation, apart from the operators' 0, 1, ...
ROOT_POSITION = -1

#: Exponential smoothing factor for actual row counts (matches the
#: workload profiler's recency bias).
ACTUAL_ALPHA = 0.3

_FILE_PREFIX = "fb_"
_FILE_SUFFIX = ".json"

#: Per-fingerprint operator cap: a file stays a few KB no matter how many
#: regions a query compiles to.
MAX_OPERATORS_PER_FINGERPRINT = 64

#: After a fingerprint's first flush, every this-many-th observation of it
#: flushes its file.
FLUSH_INTERVAL = 8

#: After a drift-triggered replan, the same template's next one waits for
#: this many further executions, so a persistently drifting template does
#: not discard its plan on every query.
REPLAN_INTERVAL = 8


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


def profile_observations(dags, estimator) -> List[dict]:
    """Flatten the DAGs of one traced execution into feedback observations:
    one dict per DAG node carrying a span, with the operator's position
    (counted across all region DAGs), its estimate under ``estimator`` and
    its actual rows."""
    observations: List[dict] = []
    position = 0
    for dag in dags:
        context = _region_input_plan(getattr(dag, "region_plan", None))
        estimates = estimate_dag_rows(dag, estimator)
        for node in dag.topological_order():
            position += 1
            if node.span is None:
                continue
            stats = node.span.attrs
            estimate = estimates[id(node)]
            observations.append(
                {
                    "position": position - 1,
                    "name": node.name(),
                    "describe": node.describe(),
                    "signature": _operator_signature(node, context),
                    "est_rows": None if estimate is None else float(estimate),
                    "actual_rows": float(stats["rows_out"]),
                }
            )
    return observations


def root_observation(plan, est_rows: Optional[float], actual_rows: int) -> dict:
    """The query's root cardinality (estimate at prepare time vs. rows
    actually returned), in its own slot. Recorded on every successful
    telemetry-enabled execution, traced or not, so the feedback store fills
    even when tracing is off (the serving default)."""
    return {
        "position": ROOT_POSITION,
        "name": "ROOT",
        "describe": "",
        "signature": plan_signature(plan),
        "est_rows": None if est_rows is None else float(est_rows),
        "actual_rows": float(actual_rows),
    }


class _OperatorFeedback:
    """Smoothed actuals for one ``(fingerprint, position)`` slot."""

    __slots__ = (
        "name", "describe", "signature", "est_rows", "actual_rows", "observations",
    )

    def __init__(self, observation: dict):
        self.name = str(observation.get("name", "?"))
        self.describe = str(observation.get("describe", ""))
        signature = observation.get("signature")
        self.signature = None if signature is None else str(signature)
        est = observation.get("est_rows")
        self.est_rows = None if est is None else float(est)
        self.actual_rows = float(observation.get("actual_rows", 0.0))
        self.observations = int(observation.get("observations", 1))

    def update(self, observation: dict) -> None:
        self.name = str(observation.get("name", self.name))
        self.describe = str(observation.get("describe", self.describe))
        signature = observation.get("signature")
        if signature is not None:
            self.signature = str(signature)
        est = observation.get("est_rows")
        if est is not None:
            self.est_rows = float(est)
        actual = float(observation.get("actual_rows", self.actual_rows))
        self.actual_rows = (
            (1.0 - ACTUAL_ALPHA) * self.actual_rows + ACTUAL_ALPHA * actual
        )
        self.observations += 1

    @property
    def q_error(self) -> Optional[float]:
        return q_error(self.est_rows, self.actual_rows)

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "describe": self.describe,
            "signature": self.signature,
            "est_rows": self.est_rows,
            "actual_rows": self.actual_rows,
            "observations": self.observations,
        }
        q = self.q_error
        if q is not None:
            out["q_error"] = q
        return out


class _FingerprintFeedback:
    __slots__ = ("fingerprint", "sql", "updated", "operators", "pending")

    def __init__(self, fingerprint: str, sql: str):
        self.fingerprint = fingerprint
        self.sql = sql
        self.updated = 0.0
        self.operators: Dict[int, _OperatorFeedback] = {}
        #: Observations folded in since this process created or loaded it
        #: (the flush throttle's count).
        self.pending = 0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "sql": self.sql,
            "updated": self.updated,
            "operators": {
                str(position): feedback.to_dict()
                for position, feedback in sorted(self.operators.items())
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
    operators = doc.get("operators")
    if not isinstance(operators, dict):
        raise ValueError("feedback document missing operators object")
    entry = _FingerprintFeedback(fingerprint, str(doc.get("sql", "")))
    entry.updated = float(doc.get("updated", 0.0))
    for key, payload in operators.items():
        position = int(key)
        if not isinstance(payload, dict):
            raise ValueError(f"operator {key} payload is not an object")
        if "actual_rows" not in payload:
            raise ValueError(f"operator {key} missing actual_rows")
        float(payload["actual_rows"])  # must be numeric
        entry.operators[position] = _OperatorFeedback(payload)
    return entry


class FeedbackStore:
    """Persistent per-``(plan fingerprint, operator position)`` actuals.

    Thread-safe; all mutation happens under one lock (queries complete
    concurrently under the service layer), re-entered by the entries'
    ``on_evict``. Loading never raises: a corrupt or partial file is
    skipped with a ``feedback.load_error`` event.
    """

    def __init__(
        self,
        directory: str,
        max_files: int = 256,
        telemetry=None,
    ):
        self.directory = directory
        self.max_files = max(1, int(max_files))
        self._telemetry = telemetry
        self._lock = threading.RLock()
        self._entries = Lru(self.max_files)
        self._entries.on_evict = self._evicted
        #: signature -> the most-observed feedback slot carrying it, so a
        #: calibration lookup is one dict probe instead of a store scan.
        self._signature_index: Dict[str, _OperatorFeedback] = {}
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
                for feedback in entry.operators.values():
                    self._index_locked(feedback)

    def _index_locked(self, feedback: _OperatorFeedback) -> None:
        signature = feedback.signature
        if signature is None:
            return
        existing = self._signature_index.get(signature)
        if existing is None or feedback.observations >= existing.observations:
            self._signature_index[signature] = feedback

    def _evicted(self, fingerprint: str, entry: _FingerprintFeedback) -> None:
        """The entries' ``on_evict``: the file and the index slots go with
        the entry."""
        try:
            os.unlink(self._path(fingerprint))
        except OSError:
            pass
        self._event("feedback.evict", fingerprint=fingerprint)
        with self._lock:
            self._signature_index.clear()
            for kept in self._entries.values():
                for feedback in kept.operators.values():
                    self._index_locked(feedback)

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
    def record_execution(self, record, prepared, result, estimator, template) -> bool:
        """The store's one entry point, reached from
        :meth:`~repro.observability.telemetry.Telemetry.record_execution`
        for every successful execution that had a plan: fold the run's
        actuals in (the root cardinality against the prepare-time estimate,
        and per operator when the run was traced), then decide from
        ``template`` — the workload profiler's aggregate for this
        fingerprint — whether the estimates have drifted far enough to
        re-plan. On drift the prepared plan's cached estimate and DAG
        templates are dropped, a ``feedback.replan`` breadcrumb is emitted
        and ``True`` tells the caller to discard its plan-cache entry, so
        the next execution plans against the now-calibrated estimator."""
        est = prepared.est_rows
        if est is not None and est < 0.0:
            est = None  # estimation-failure sentinel
        observations = [root_observation(prepared.plan, est, record.rows)]
        if result.trace is not None and result.dags:
            observations += profile_observations(result.dags, estimator)
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

    def observe(self, fingerprint: str, sql: str, observations: List[dict]) -> None:
        """Fold one execution's observations into the store and flush the
        fingerprint's file per the throttle policy."""
        if not observations:
            return
        with self._lock:
            entry = self._entries.get_or_put(
                fingerprint, lambda: _FingerprintFeedback(fingerprint, sql)
            )
            entry.updated = time.time()
            for observation in observations:
                position = int(observation.get("position", 0))
                if position >= MAX_OPERATORS_PER_FINGERPRINT:
                    continue
                existing = entry.operators.get(position)
                if existing is None:
                    existing = _OperatorFeedback(observation)
                    entry.operators[position] = existing
                else:
                    existing.update(observation)
                self._index_locked(existing)
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

    def summary(self) -> dict:
        with self._lock:
            entries = self._entries.values()
            operators = sum(len(e.operators) for e in entries)
            worst: Optional[float] = None
            for entry in entries:
                for feedback in entry.operators.values():
                    q = feedback.q_error
                    if q is not None and (worst is None or q > worst):
                        worst = q
            return {
                "directory": self.directory,
                "fingerprints": len(entries),
                "operators": operators,
                "max_q_error": worst,
            }

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
            feedback = self._signature_index.get(signature)
            return None if feedback is None else feedback.actual_rows
