"""Always-on service telemetry: the capture layer behind the flight
recorder, the slow-query log and the plan-fingerprinted workload profiler.

EXPLAIN ANALYZE and the Chrome trace make a *single query* observable;
this module makes the *service* observable: once a statement finishes, its
span tree is closed into a compact :class:`QueryRecord` — normalized SQL,
plan fingerprint, parse/bind/translate/execute latency breakdown, rows,
spill, cache flags, the root Q-error — which feeds three bounded sinks:

- the :class:`~repro.observability.events.FlightRecorder` ring buffer
  (incident reconstruction: what happened, in order, just now);
- the slow-query log (full records for queries over a latency
  threshold; only these carry morsel skew, derived from the span tree
  when the record enters the log);
- :class:`~repro.observability.workload.WorkloadStats` (per-template
  streaming latency/Q-error aggregates, the adaptive re-planning signal).

Cost model: callers test :attr:`Telemetry.enabled` once per statement, so
a disabled server pays one branch per query and builds neither root span
nor record. When enabled, the per-query cost is the root and its stage
spans, one :class:`QueryRecord`, a few dict/deque updates under short
locks, and (once per distinct prepared plan) one plan hash and one
cardinality estimate — all per *query*, never per node, region or row,
whether or not the run was traced. Only a slow query's record walks the
regions for skew.
Memory is bounded everywhere: the recorder and the slow-query log are each
a :class:`~repro.bounded.Ring` and the fingerprint table an
:class:`~repro.bounded.Lru`, all sized by :class:`TelemetryConfig`.

:data:`GLOBAL_TELEMETRY` is the process-wide instance
(:class:`~repro.api.Database` and the service default to it); tests and
benchmarks construct private instances. Environment overrides:
``REPRO_TELEMETRY=off`` disables the global instance,
``REPRO_TELEMETRY_SLOW_MS`` sets its slow-query threshold, and
``REPRO_TELEMETRY_DUMP_DIR`` makes query errors auto-dump the flight
recorder there.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from typing import List, Optional

from ..bounded import Ring
from ..errors import QueryCancelled
from ..execution.trace import Span
from ..logical.plan import key_hash
from .analyze import morsel_skew, q_error
from .events import FlightRecorder
from .workload import WorkloadStats

__all__ = [
    "TelemetryConfig",
    "QueryRecord",
    "Telemetry",
    "GLOBAL_TELEMETRY",
    "render_report",
]

#: Seconds between automatic error dumps (an error storm must not turn the
#: telemetry layer into a disk-filling loop).
ERROR_DUMP_MIN_INTERVAL_S = 5.0

#: SQL stored in records and templates is truncated to this length.
MAX_SQL_CHARS = 500

#: Flight-recorder event kind of a finished query, by record status.
_EVENT_KIND = {"ok": "query.finish", "error": "query.error", "cancelled": "query.cancel"}


class TelemetryConfig:
    """Bounds and thresholds of one :class:`Telemetry` instance."""

    def __init__(
        self,
        enabled: Optional[bool] = None,
        ring_capacity: int = 4096,
        slow_query_threshold_s: Optional[float] = None,
        slowlog_capacity: int = 128,
        max_fingerprints: int = 512,
        dump_on_error_dir: Optional[str] = None,
    ):
        if enabled is None:
            enabled = os.environ.get("REPRO_TELEMETRY", "on") != "off"
        if slow_query_threshold_s is None:
            slow_query_threshold_s = (
                float(os.environ.get("REPRO_TELEMETRY_SLOW_MS", "1000")) / 1000.0
            )
        if dump_on_error_dir is None:
            dump_on_error_dir = os.environ.get("REPRO_TELEMETRY_DUMP_DIR")
        self.enabled = enabled
        self.ring_capacity = ring_capacity
        #: Queries at or above this end-to-end latency are retained in full
        #: detail in the slow-query log.
        self.slow_query_threshold_s = slow_query_threshold_s
        self.slowlog_capacity = slowlog_capacity
        self.max_fingerprints = max_fingerprints
        #: When set, a ``query.error`` record dumps the flight recorder
        #: into this directory (rate-limited).
        self.dump_on_error_dir = dump_on_error_dir


class QueryRecord:
    """The audit record of one finished (or failed) query."""

    __slots__ = (
        "query_id", "session_id", "sql", "fingerprint", "engine", "status",
        "error", "rows", "plan_cache_hit", "result_cache_hit",
        "parse_bind_s", "translate_s", "execute_s", "total_s",
        "queue_wait_s", "spill_bytes_written", "spill_bytes_read",
        "max_q_error", "morsel_skew", "straggler", "wall",
    )

    def __init__(
        self,
        query_id: str,
        sql: str,
        fingerprint: str,
        engine: str = "lolepop",
        session_id: str = "-",
        status: str = "ok",
        error: Optional[str] = None,
        rows: int = 0,
        plan_cache_hit: bool = False,
        result_cache_hit: bool = False,
        parse_bind_s: float = 0.0,
        translate_s: float = 0.0,
        execute_s: float = 0.0,
        total_s: float = 0.0,
        queue_wait_s: float = 0.0,
        spill_bytes_written: int = 0,
        spill_bytes_read: int = 0,
        max_q_error: Optional[float] = None,
    ):
        self.query_id = query_id
        self.session_id = session_id
        self.sql = sql
        self.fingerprint = fingerprint
        self.engine = engine
        #: ``ok`` | ``error`` | ``cancelled``.
        self.status = status
        self.error = error
        self.rows = rows
        self.plan_cache_hit = plan_cache_hit
        self.result_cache_hit = result_cache_hit
        #: Latency breakdown, seconds. ``parse_bind_s`` is ~0 on a
        #: plan-cache hit; ``translate_s`` is ~0 on a DAG-template reuse.
        self.parse_bind_s = parse_bind_s
        self.translate_s = translate_s
        self.execute_s = execute_s
        self.total_s = total_s
        self.queue_wait_s = queue_wait_s
        self.spill_bytes_written = spill_bytes_written
        self.spill_bytes_read = spill_bytes_read
        #: The statement's root Q-error: the row estimate cached on its
        #: prepared plan against the rows it returned, traced or not — the
        #: one series the workload table's drift check reads. ``None`` when
        #: no estimate exists (DDL, EXPLAIN, estimator failure).
        self.max_q_error = max_q_error
        #: Worst per-region morsel skew (max/mean work-item duration) and
        #: the ``"operator/phase"`` that caused it — set only on a record
        #: that enters the slow log from a traced run with a region of two
        #: or more items; ``None`` otherwise (the serving default).
        self.morsel_skew: Optional[float] = None
        self.straggler: Optional[str] = None
        self.wall = time.time()

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Telemetry:
    """One telemetry domain: recorder + slow log + workload."""

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config or TelemetryConfig()
        self.enabled = self.config.enabled
        self.recorder = FlightRecorder(self.config.ring_capacity)
        #: ``QueryRecord.to_dict()`` of every query at or over the
        #: slow-query threshold.
        self.slowlog = Ring(self.config.slowlog_capacity)
        self.workload = WorkloadStats(self.config.max_fingerprints)
        self._last_error_dump = 0.0
        #: Total query records observed (all of them, not just slow ones).
        self.queries_recorded = 0
        #: Ids (``d1``, ``d2``, ...) for statement roots opened without one —
        #: direct ``Database.sql`` calls; the query service stamps its own.
        self._direct_ids = itertools.count(1)
        #: Zero-arg callable returning the materialization manager's stats
        #: dict, installed via :meth:`attach_reuse`; ``None`` = no manager.
        self._reuse_stats = None

    # ------------------------------------------------------------------
    def attach_reuse(self, provider) -> None:
        """Install the materialization manager's stats provider so
        :meth:`summary` / :meth:`report` carry a ``reuse`` block."""
        self._reuse_stats = provider

    def reuse_snapshot(self) -> Optional[dict]:
        """The manager's current stats, or ``None`` when no manager is
        attached (or its provider failed)."""
        if self._reuse_stats is None:
            return None
        try:
            return dict(self._reuse_stats())
        except Exception:  # noqa: BLE001 — diagnostics never raise
            return None

    # ------------------------------------------------------------------
    # Enablement
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    @contextmanager
    def disabled(self):
        """Temporarily disable recording (timed benchmark sections)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = previous

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def event(self, kind: str, **fields) -> None:
        """Append one flight-recorder event (no-op when disabled)."""
        if not self.enabled:
            return
        self.recorder.record(kind, **fields)

    def truncate_sql(self, sql: str) -> str:
        return sql if len(sql) <= MAX_SQL_CHARS else sql[: MAX_SQL_CHARS - 3] + "..."

    def open_statement(
        self,
        sql: str,
        engine: str,
        query_id: Optional[str] = None,
        session_id: Optional[str] = None,
    ) -> Span:
        """Open the root of one statement's span tree: named by the
        statement text, its attrs the attribution every view reads — the
        ids the service stamped (a direct ``Database.sql`` call gets a
        ``d<n>`` id here), the engine, the cache flags."""
        attrs = {
            "query_id": query_id or f"d{next(self._direct_ids)}", "session_id": session_id,
            "engine": engine, "plan_cache_hit": False, "result_cache_hit": False,
        }
        return Span("statement", sql, attrs=attrs)

    def record_execution(
        self,
        root: Span,
        prepared=None,
        config=None,
        result=None,
        error: Optional[BaseException] = None,
        estimator=None,
        feedback=None,
    ) -> bool:
        """Close ``root`` and record the finished statement — the only place
        a :class:`QueryRecord` is built. Callers check :attr:`enabled` first,
        so the disabled path does not even evaluate the arguments.

        What the caller measured is on the tree: ids, engine and cache flags
        in the root's attrs, queue / parse+bind / execute seconds as its
        stages. Beside it come the ``prepared`` plan and the ``config`` it
        ran (or would have run) under — a statement that never got a plan
        is fingerprinted by its text — and the ``result`` or the ``error``.
        Derived here: status, fingerprint, rows, and for a statement that
        actually executed (not a result-cache hit) translate seconds, spill
        and the root Q-error against ``estimator``; morsel skew only when
        the record enters the slow log.

        The record feeds the flight recorder, the workload table, the slow
        log and, for a successful execution, the ``feedback`` store; ``True``
        means its drift check wants the cached plan discarded. Never raises:
        it runs in ``finally`` blocks and must not mask the query's error.
        """
        try:
            root.close()
            attrs = root.attrs
            engine = attrs["engine"]
            sql = root.name
            if prepared is not None and prepared.plan is not None:
                fingerprint = prepared.fingerprint(engine, config)
            else:  # parse/bind error (or a never-run EXPLAIN): name the text
                fingerprint = key_hash((engine, "sql", sql))
            if error is None:
                status, error_text = "ok", None
            elif isinstance(error, QueryCancelled):
                status, error_text = "cancelled", str(error)
            else:
                status, error_text = "error", f"{type(error).__name__}: {error}"
            executed = None if attrs["result_cache_hit"] else result
            spill = getattr(executed, "spill", None) or {}
            stages = root.stages()
            parse_bind_s = stages.get("parse_bind", 0.0)
            execute_s = stages.get("execute", 0.0)
            # Submission to pick-up, as ``QueryTicket.queue_wait`` and the
            # ``service.queue_wait_seconds`` histogram measure it: the
            # root opens at submission, the ``queue`` stage ends at pick-up.
            queue = next((c for c in root.children if c.name == "queue"), None)
            record = QueryRecord(
                attrs["query_id"],
                self.truncate_sql(sql),
                fingerprint,
                engine=engine,
                session_id=attrs["session_id"] or "-",
                status=status,
                error=error_text,
                rows=len(result.batch) if result is not None else 0,
                plan_cache_hit=attrs["plan_cache_hit"],
                result_cache_hit=attrs["result_cache_hit"],
                parse_bind_s=parse_bind_s,
                translate_s=getattr(executed, "translate_s", 0.0) or 0.0,
                execute_s=execute_s,
                total_s=parse_bind_s + execute_s,
                queue_wait_s=queue.end - root.start if queue is not None else 0.0,
                spill_bytes_written=spill.get("bytes_written", 0),
                spill_bytes_read=spill.get("bytes_read", 0),
                max_q_error=_root_q_error(prepared, executed, estimator),
            )
            template = self._fan_out(record, getattr(executed, "trace", None))
            if feedback is not None and status == "ok" and executed is not None:
                return feedback.record_execution(record, prepared, executed, template)
        except Exception:  # noqa: BLE001 — telemetry never takes queries down
            pass
        return False

    def _fan_out(self, record: QueryRecord, trace):
        """Feed ``record`` into every sink; returns its workload template.
        A record that enters the slow log first gets the worst skew of
        ``trace``'s regions with two or more items."""
        self.queries_recorded += 1
        is_error = record.status == "error"
        self.recorder.record(
            _EVENT_KIND[record.status],
            query_id=record.query_id,
            session_id=record.session_id,
            fingerprint=record.fingerprint,
            engine=record.engine,
            rows=record.rows,
            total_s=record.total_s,
            plan_cache_hit=record.plan_cache_hit,
            result_cache_hit=record.result_cache_hit,
            **({"error": record.error} if record.error else {}),
        )
        if record.spill_bytes_written or record.spill_bytes_read:
            self.recorder.record(
                "spill",
                query_id=record.query_id,
                bytes_written=record.spill_bytes_written,
                bytes_read=record.spill_bytes_read,
            )
        template = self.workload.observe(
            record.fingerprint,
            record.sql,
            record.engine,
            record.total_s,
            q_error=record.max_q_error,
            error=is_error,
            plan_cache_hit=record.plan_cache_hit,
            spill_bytes=record.spill_bytes_written,
            rows=record.rows,
        )
        if record.total_s >= self.config.slow_query_threshold_s:
            skew = next((e for e in morsel_skew(trace) if e["items"] >= 2), None)
            if skew is not None:
                record.morsel_skew = skew["skew"]
                record.straggler = f"{skew['operator']}/{skew['phase']}"
            self.slowlog.append(record.to_dict())
        if is_error and self.config.dump_on_error_dir:
            self._dump_on_error(record)
        return template

    # ------------------------------------------------------------------
    def _dump_on_error(self, record: QueryRecord) -> None:
        now = time.monotonic()
        if now - self._last_error_dump < ERROR_DUMP_MIN_INTERVAL_S:
            return
        self._last_error_dump = now
        try:
            directory = self.config.dump_on_error_dir
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory, f"flight_{record.query_id}_{int(time.time())}.json"
            )
            self.recorder.dump_json(path)
        except OSError:
            pass  # diagnostics must never take the query path down

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def slow_queries(self, last: Optional[int] = None) -> dict:
        """The slow-query log's bounds, counts and (``last``) records."""
        stats = self.slowlog.stats()
        return {
            "capacity": stats["capacity"],
            "threshold_s": self.config.slow_query_threshold_s,
            "retained": stats["retained"],
            "observed": stats["recorded"],
            "records": self.slowlog.snapshot(last),
        }

    def report(self, top: int = 20) -> dict:
        """One JSON-serializable service-telemetry report."""
        return {
            "schema": 1,
            "enabled": self.enabled,
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "queries_recorded": self.queries_recorded,
            "flight_recorder": self.recorder.stats(),
            "slow_queries": self.slow_queries(),
            "workload": self.workload.snapshot(top=top),
            "drifting": [
                entry.to_dict()
                for _, entry in self.workload.drifting_templates()
            ],
            "reuse": self.reuse_snapshot(),
        }

    def summary(self) -> dict:
        """Compact roll-up (``QueryService.stats()["telemetry"]`` and the
        server-throughput benchmark report embed it)."""
        recorder = self.recorder.stats()
        summary = {
            "queries_recorded": self.queries_recorded,
            "events_recorded": recorder["recorded"],
            "events_dropped": recorder["dropped"],
            "fingerprints": len(self.workload),
            "fingerprints_evicted": self.workload.evicted,
            "slow_queries": self.slowlog.recorded,
        }
        reuse = self.reuse_snapshot()
        if reuse is not None:
            summary["reuse"] = reuse
        return summary

    def dump(self, path: str) -> dict:
        """Write ``{"report": ..., "events": [...]}`` to ``path`` (the full
        state :mod:`tools.telemetry_report` renders offline)."""
        doc = {"report": self.report(), "events": self.recorder.snapshot()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
        return doc

    def reset(self) -> None:
        self.recorder.reset()
        self.slowlog.reset()
        self.workload.reset()
        self.queries_recorded = 0


def _root_q_error(prepared, result, estimator) -> Optional[float]:
    """The statement's Q-error, traced or not: the rows it returned against
    the root estimate cached on the prepared plan — one estimator call per
    *prepared plan*, not per execution."""
    if result is None or estimator is None or prepared.plan is None:
        return None
    if prepared.est_rows is None:
        try:
            prepared.est_rows = max(0.0, float(estimator.rows(prepared.plan)))
        except Exception:  # noqa: BLE001 — remember the failure
            prepared.est_rows = -1.0
    if prepared.est_rows >= 0.0:
        return q_error(prepared.est_rows, len(result.batch))
    return None


#: The process-wide telemetry domain (always on unless
#: ``REPRO_TELEMETRY=off``): :class:`~repro.api.Database` instances and the
#: query service feed it by default, the shell's ``.slowlog`` /
#: ``.fingerprints`` read it.
GLOBAL_TELEMETRY = Telemetry()


# ----------------------------------------------------------------------
# Text rendering (the shell and tools/telemetry_report.py)
# ----------------------------------------------------------------------
def _fmt_ms(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds * 1000:.1f}ms"


def render_report(doc: dict, width: int = 100) -> str:
    """Render a :meth:`Telemetry.report` document as text."""
    lines: List[str] = []
    recorder = doc["flight_recorder"]
    lines.append(
        f"service telemetry — {doc['queries_recorded']} queries recorded "
        f"({'enabled' if doc.get('enabled', True) else 'disabled'})"
    )
    lines.append(
        f"flight recorder: {recorder['retained']}/{recorder['capacity']} "
        f"events retained, {recorder['recorded']} recorded, "
        f"{recorder['dropped']} dropped"
    )
    for kind, count in recorder.get("by_kind", {}).items():
        lines.append(f"  {kind:<20} {count}")

    slow = doc["slow_queries"]
    lines.append(
        f"slow queries (>= {slow['threshold_s'] * 1000:.0f}ms): "
        f"{slow['observed']} observed, {slow['retained']} retained"
    )
    lines += render_slow_records(slow["records"][-10:])
    workload = doc["workload"]
    lines.append(
        f"workload: {workload['tracked']}/{workload['capacity']} "
        f"fingerprints tracked, {workload['evicted']} evicted"
    )
    lines += render_templates(workload["templates"][:15], doc.get("drifting", []))

    reuse = doc.get("reuse")
    if reuse is not None:
        lines.append(
            f"reuse: hit-rate={reuse.get('hit_rate', 0.0):.2f} "
            f"({reuse.get('hits', 0)} hits / {reuse.get('misses', 0)} misses), "
            f"{reuse.get('resident_bytes', 0)}B resident in "
            f"{reuse.get('buffers', 0)} buffers + {reuse.get('views', 0)} views, "
            f"{reuse.get('evictions', 0)} evicted, "
            f"maintenance {_fmt_ms(reuse.get('maintenance_s', 0.0))} "
            f"over {reuse.get('maintenance_events', 0)} delta(s)"
        )
    return "\n".join(line[:width] for line in lines)


def render_slow_records(records: List[dict]) -> List[str]:
    """One line per slow-query record (the report and the shell's ``.slowlog``)."""
    return [
        f"  {record['query_id']:<8} {_fmt_ms(record['total_s']):>10} "
        f"(parse {_fmt_ms(record['parse_bind_s'])}, "
        f"translate {_fmt_ms(record['translate_s'])}, "
        f"execute {_fmt_ms(record['execute_s'])}) "
        f"rows={record['rows']} fp={record['fingerprint']} "
        f"{record['sql'][:40]!r}"
        for record in records
    ]


def render_templates(templates: List[dict], drifting: List[dict]) -> List[str]:
    """One line per workload template, then the drifting ones (the report
    and the shell's ``.fingerprints``)."""
    lines = []
    for entry in templates:
        q = entry["q_error"]
        q_text = (
            f"q-mean={q['mean']:.2f} q-max={entry['q_max']:.2f}"
            if q["count"]
            else "q=?"
        )
        quantiles = entry["latency"].get("quantiles", {})
        lines.append(
            f"  {entry['fingerprint']} n={entry['count']:<6} "
            f"p50~{_fmt_ms(quantiles.get('p50'))} "
            f"p95~{_fmt_ms(quantiles.get('p95'))} "
            f"{q_text} {entry['example_sql'][:45]!r}"
        )
    if not drifting:
        return lines + ["drifting templates: none"]
    lines.append(f"drifting templates ({len(drifting)}):")
    for entry in drifting:
        lines.append(
            f"  {entry['fingerprint']} drift x{entry['drift_ratio']:.2f} "
            f"(baseline {entry['q_baseline_mean']:.2f} -> recent "
            f"{entry['q_recent']:.2f}, n={entry['count']}) "
            f"{entry['example_sql'][:40]!r}"
        )
    return lines
