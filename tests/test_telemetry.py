"""Tests for the always-on service telemetry layer: flight recorder,
slow-query log, plan-fingerprinted workload profiler, Q-error drift
detection, and the zero-allocation disabled path."""

from __future__ import annotations

import importlib.util
import json
import os
import threading

import numpy as np
import pytest

from repro import (
    AdmissionError,
    Database,
    QueryCancelled,
    QueryService,
    ServiceConfig,
)
from repro.errors import PlanVerificationError, ReproError
from repro.execution.trace import ExecutionTrace
from repro.lolepop.base import Dag
from repro.lolepop.verify import verify_dag
from repro.observability.chrome import chrome_trace_events
from repro.observability.events import EVENT_KINDS, FlightRecorder
from repro.observability.metrics import Histogram
import repro.observability.telemetry as telemetry_module
from repro.observability.telemetry import (
    GLOBAL_TELEMETRY,
    QueryRecord,
    Telemetry,
    TelemetryConfig,
    render_report,
)
from repro.observability.workload import (
    BASELINE_WINDOW,
    DRIFT_MIN_COUNT,
    DRIFT_THRESHOLD,
    WorkloadStats,
)


def fresh_telemetry(**overrides) -> Telemetry:
    """A private, enabled instance with every-query slow logging unless a
    test overrides the threshold."""
    overrides.setdefault("enabled", True)
    overrides.setdefault("slow_query_threshold_s", 0.0)
    return Telemetry(TelemetryConfig(**overrides))


def make_db(telemetry, rows=2000, seed=3, plan_cache_size=256):
    db = Database(
        num_threads=2, plan_cache_size=plan_cache_size, telemetry=telemetry
    )
    db.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
    rng = np.random.default_rng(seed)
    db.insert(
        "t",
        {
            "g": rng.integers(0, 5, rows),
            "x": rng.random(rows).round(4),
            "o": rng.permutation(rows),
        },
    )
    return db


def service_for(db, **cfg):
    return QueryService(db, ServiceConfig(**cfg))


# ---------------------------------------------------------------------------
# Flight recorder (unit)
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_bounds_and_dropped_counter(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(20):
            recorder.record("query.finish", i=i)
        assert len(recorder) == 8
        assert recorder.recorded == 20
        assert recorder.stats()["dropped"] == 12
        events = recorder.snapshot()
        # Oldest-first, the 12 oldest rotated out.
        assert [e["i"] for e in events] == list(range(12, 20))
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)

    def test_snapshot_filters_by_kind_and_last(self):
        recorder = FlightRecorder(capacity=64)
        for i in range(6):
            recorder.record("query.finish" if i % 2 else "cache.hit", i=i)
        finishes = recorder.snapshot(kind="query.finish")
        assert [e["i"] for e in finishes] == [1, 3, 5]
        assert [e["i"] for e in recorder.snapshot(last=2)] == [4, 5]

    def test_stats_and_reset(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("spill", bytes_written=10)
        recorder.record("spill", bytes_written=20)
        recorder.record("query.error", error="boom")
        stats = recorder.stats()
        assert stats["by_kind"] == {"query.error": 1, "spill": 2}
        assert stats["recorded"] == 3 and stats["dropped"] == 0
        recorder.reset()
        assert recorder.recorded == 0 and len(recorder) == 0
        assert recorder.stats()["by_kind"] == {}

    def test_dump_json(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.record("query.finish", query_id="q1", rows=3)
        path = str(tmp_path / "flight.json")
        assert recorder.dump_json(path) == 1
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["stats"]["recorded"] == 1
        assert doc["events"][0]["kind"] == "query.finish"
        assert doc["events"][0]["query_id"] == "q1"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_thread_safety_no_lost_events(self):
        recorder = FlightRecorder(capacity=10_000)

        def hammer():
            for _ in range(500):
                recorder.record("cache.hit")

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert recorder.recorded == 2000
        assert recorder.stats()["by_kind"]["cache.hit"] == 2000


# ---------------------------------------------------------------------------
# Slow-query log (unit)
# ---------------------------------------------------------------------------
def _finish(telemetry, query_id="q1", total_s=0.0):
    """Record one finished statement that took ``total_s`` to execute."""
    trace = ExecutionTrace(telemetry.open_statement("select 1", "lolepop", query_id, "s1"))
    trace.add("stage", "execute", trace.root.start, trace.root.start + total_s)
    telemetry.record_execution(trace.root)


class TestSlowQueryLog:
    def test_threshold(self):
        telemetry = fresh_telemetry(slow_query_threshold_s=0.5)
        _finish(telemetry, total_s=0.1)
        _finish(telemetry, total_s=0.9)
        slow = telemetry.slow_queries()
        assert slow["observed"] == 1 and slow["retained"] == 1
        assert slow["records"][0]["total_s"] == pytest.approx(0.9)

    def test_capacity_rotation_keeps_observed_count(self):
        telemetry = fresh_telemetry(slowlog_capacity=2)
        for i in range(5):
            _finish(telemetry, query_id=f"q{i}", total_s=float(i))
        slow = telemetry.slow_queries()
        assert slow["observed"] == 5 and slow["retained"] == 2
        assert [r["query_id"] for r in slow["records"]] == ["q3", "q4"]

    def test_reset(self):
        telemetry = fresh_telemetry()
        _finish(telemetry)
        telemetry.reset()
        assert telemetry.slow_queries()["observed"] == 0
        assert telemetry.slowlog.snapshot() == []


# ---------------------------------------------------------------------------
# Workload profiler + drift (unit)
# ---------------------------------------------------------------------------
class TestWorkloadStats:
    def test_capacity_bound_evicts_least_recently_updated(self):
        stats = WorkloadStats(capacity=2)
        stats.observe("a", "sql a", "lolepop", 0.1)
        stats.observe("b", "sql b", "lolepop", 0.1)
        stats.observe("a", "sql a", "lolepop", 0.1)  # refresh a
        stats.observe("c", "sql c", "lolepop", 0.1)  # evicts b, not a
        assert len(stats) == 2 and stats.evicted == 1
        assert stats.get("a") is not None and stats.get("c") is not None
        assert stats.get("b") is None

    def test_drift_detection_fires_after_baseline(self):
        stats = WorkloadStats()
        for _ in range(BASELINE_WINDOW):
            stats.observe("fp", "sql", "lolepop", 0.01, q_error=1.0)
        assert stats.drifting_templates() == []
        # The cardinality model goes stale: recent Q-errors degrade.
        for _ in range(10):
            stats.observe("fp", "sql", "lolepop", 0.01, q_error=8.0)
        drifting = stats.drifting_templates()
        assert [fp for fp, _ in drifting] == ["fp"]
        entry = drifting[0][1]
        assert entry.drift_ratio() > 2.0
        assert entry.q_baseline.mean == pytest.approx(1.0)
        assert entry.q_max == 8.0

    def test_stable_template_never_drifts(self):
        stats = WorkloadStats()
        for _ in range(BASELINE_WINDOW + 20):
            stats.observe("fp", "sql", "lolepop", 0.01, q_error=3.0)
        assert stats.drifting_templates() == []

    def test_min_count_guards_young_templates(self):
        # The Q-error degrades early: the ratio is past the threshold at
        # 11 executions, but the template drifts only from the 12th.
        stats = WorkloadStats()
        for q_error in [1.0] * 7 + [100.0] * 4:
            stats.observe("fp", "sql", "lolepop", 0.01, q_error=q_error)
        assert stats.get("fp").drift_ratio() >= DRIFT_THRESHOLD
        assert stats.drifting_templates() == []
        stats.observe("fp", "sql", "lolepop", 0.01, q_error=100.0)
        assert stats.get("fp").count == DRIFT_MIN_COUNT
        assert [fp for fp, _ in stats.drifting_templates()] == ["fp"]

    def test_snapshot_shape(self):
        stats = WorkloadStats(capacity=4)
        stats.observe("fp", "sql", "lolepop", 0.01, q_error=2.0,
                      plan_cache_hit=True, rows=7)
        doc = stats.snapshot()
        assert doc["tracked"] == 1 and doc["capacity"] == 4
        entry = doc["templates"][0]
        assert entry["count"] == 1 and entry["plan_cache_hits"] == 1
        assert entry["rows_out"] == 7
        assert "quantiles" in entry["latency"]


class TestPlanFingerprint:
    def test_literals_collide_shapes_differ(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        db.sql("SELECT g, sum(x) FROM t WHERE o < 100 GROUP BY g")
        db.sql("SELECT g, sum(x) FROM t WHERE o < 999 GROUP BY g")
        db.sql("SELECT g, median(x) FROM t GROUP BY g")
        entries = telemetry.workload.templates()
        assert len(entries) == 2
        # The literal-only pair aggregated under one template.
        assert sorted(e.count for e in entries) == [1, 2]

    def test_fallback_on_sql_text(self):
        # A statement that never got a plan is named by its normalized text.
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        for sql, engine in (
            ("SELECT nope FROM t", "lolepop"),
            ("SELECT nada FROM t", "lolepop"),
            ("select  nope from T", "lolepop"),
            ("SELECT nope FROM t", "naive"),
        ):
            with pytest.raises(ReproError):
                db.sql(sql, engine=engine)
        a, b, a_again, a_naive = (
            r["fingerprint"] for r in telemetry.slowlog.snapshot()
        )
        assert a != b
        assert a == a_again
        # Engine scoping: the same text on another engine is another key.
        assert a != a_naive

    def test_stable_across_executions(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        db.sql("SELECT count(*) FROM t")
        db.sql("SELECT count(*) FROM t")
        entries = telemetry.workload.templates()
        assert len(entries) == 1 and entries[0].count == 2


# ---------------------------------------------------------------------------
# Database-level audit records
# ---------------------------------------------------------------------------
class TestDatabaseRecords:
    def test_sql_emits_one_record_with_breakdown(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        db.sql("SELECT g, sum(x) FROM t GROUP BY g")
        assert telemetry.queries_recorded == 1
        record = telemetry.slowlog.snapshot()[-1]
        assert record["status"] == "ok"
        assert record["engine"] == "lolepop"
        assert record["rows"] == 5
        assert record["plan_cache_hit"] is False
        assert record["parse_bind_s"] > 0
        assert record["execute_s"] > 0
        assert record["total_s"] >= record["parse_bind_s"]
        assert record["query_id"].startswith("d")
        finishes = telemetry.recorder.snapshot(kind="query.finish")
        assert len(finishes) == 1
        assert finishes[0]["fingerprint"] == record["fingerprint"]

    def test_plan_cache_hit_flag(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        db.sql("SELECT count(*) FROM t")
        db.sql("SELECT count(*) FROM t")
        first, second = telemetry.slowlog.snapshot()
        assert first["plan_cache_hit"] is False
        assert second["plan_cache_hit"] is True

    def test_max_q_error_always_on(self):
        # No profile collected, yet the record carries a root-level
        # Q-error from the cached per-plan estimate.
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        db.sql("SELECT g, sum(x) FROM t GROUP BY g")
        record = telemetry.slowlog.snapshot()[-1]
        assert record["max_q_error"] is not None
        assert record["max_q_error"] >= 1.0
        entry = telemetry.workload.templates()[0]
        assert entry.q_stats.count == 1

    def test_skew_is_derived_only_for_the_slow_log(self, monkeypatch):
        """Only the slow log keeps morsel skew, so a traced record under
        the threshold never walks the regions for it."""
        import repro.observability.telemetry as telemetry_module

        calls = []
        real = telemetry_module.morsel_skew
        monkeypatch.setattr(
            telemetry_module, "morsel_skew", lambda trace: calls.append(1) or real(trace)
        )
        sql = "SELECT g, sum(x) FROM t GROUP BY g"
        fast = fresh_telemetry(slow_query_threshold_s=1.0)
        db = make_db(fast)
        config = db.config.clone(collect_trace=True, morsel_size=500)
        db.sql(sql, config=config)
        assert fast.queries_recorded == 1 and fast.slowlog.snapshot() == []
        assert calls == []
        db.telemetry = slow = fresh_telemetry(slow_query_threshold_s=0.0)
        db.sql(sql, config=config)
        assert calls == [1]
        (record,) = slow.slowlog.snapshot()
        assert record["morsel_skew"] >= 1.0
        assert record["straggler"].count("/") == 1

    def test_explain_not_recorded(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        db.sql("EXPLAIN SELECT count(*) FROM t")
        db.sql("EXPLAIN LOLEPOP SELECT count(*) FROM t")
        assert telemetry.queries_recorded == 0

    def test_parse_error_recorded(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with pytest.raises(ReproError):
            db.sql("SELECT FROM nothing WHERE")
        assert telemetry.queries_recorded == 1
        record = telemetry.slowlog.snapshot()[-1]
        assert record["status"] == "error"
        assert record["error"]
        assert telemetry.recorder.snapshot(kind="query.error")

    def test_plan_cache_evict_event(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry, plan_cache_size=2)
        db.sql("SELECT count(*) FROM t")
        db.sql("SELECT sum(x) FROM t")
        db.sql("SELECT g, count(*) FROM t GROUP BY g")
        evictions = telemetry.recorder.snapshot(kind="cache.evict")
        assert evictions and evictions[0]["cache"] == "plan"

    def test_sql_truncation(self, monkeypatch):
        monkeypatch.setattr(telemetry_module, "MAX_SQL_CHARS", 30)
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        db.sql(
            "SELECT g, sum(x), min(x), max(x), count(*) FROM t GROUP BY g"
        )
        record = telemetry.slowlog.snapshot()[-1]
        assert len(record["sql"]) == 30 and record["sql"].endswith("...")


# ---------------------------------------------------------------------------
# Service-level events and attribution
# ---------------------------------------------------------------------------
class TestServiceTelemetry:
    def test_query_and_session_attribution(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with service_for(db) as service:
            session = service.session()
            session.execute("SELECT g, sum(x) FROM t GROUP BY g", timeout=60)
        record = telemetry.slowlog.snapshot()[-1]
        assert record["session_id"] not in ("-", None)
        starts = telemetry.recorder.snapshot(kind="query.start")
        assert len(starts) == 1
        assert starts[0]["query_id"] == record["query_id"]
        assert starts[0]["session_id"] == record["session_id"]
        # One definition of the wait: submission to pick-up.
        assert record["queue_wait_s"] == pytest.approx(starts[0]["queue_wait_s"], abs=1e-3)

    def test_queue_wait_is_submission_to_pickup(self):
        """``queue_wait_s`` is what ``QueryTicket.queue_wait`` measures —
        the root opens at submission, the ``queue`` stage ends at pick-up —
        not the ``queue`` stage alone."""
        telemetry = fresh_telemetry()
        trace = ExecutionTrace(telemetry.open_statement("select 1", "lolepop", "q1", "s1"))
        t0 = trace.root.start
        trace.add("stage", "parse_bind", t0, t0 + 0.1)
        trace.add("stage", "admission", t0 + 0.1, t0 + 0.15)
        trace.add("stage", "queue", t0 + 0.15, t0 + 0.4)
        trace.add("stage", "execute", t0 + 0.4, t0 + 0.5)
        telemetry.record_execution(trace.root)
        record = telemetry.slowlog.snapshot()[-1]
        assert record["queue_wait_s"] == pytest.approx(0.4)
        assert record["total_s"] == pytest.approx(0.2)

    def test_execute_prepared_opens_its_own_root(self):
        """A prepared statement executed without the tree ``prepare_timed``
        opens is still one record: ``execute_prepared`` opens the root."""
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        prepared = db.prepare("SELECT g, sum(x) FROM t GROUP BY g")
        assert telemetry.queries_recorded == 0
        db.execute_prepared(prepared)
        assert telemetry.queries_recorded == 1
        record = telemetry.slowlog.snapshot()[-1]
        assert record["query_id"].startswith("d") and record["status"] == "ok"
        assert record["sql"] == prepared.normalized and record["execute_s"] > 0.0

    def test_result_cache_hit_recorded(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with service_for(db) as service:
            session = service.session()
            sql = "SELECT g, sum(x) FROM t GROUP BY g"
            session.execute(sql, timeout=60)
            session.execute(sql, timeout=60)
        assert telemetry.queries_recorded == 2
        first, second = telemetry.slowlog.snapshot()
        assert first["result_cache_hit"] is False
        assert second["result_cache_hit"] is True
        # Both executions aggregate under one fingerprint.
        assert first["fingerprint"] == second["fingerprint"]
        hits = telemetry.recorder.snapshot(kind="cache.hit")
        assert any(e["cache"] == "result" for e in hits)

    def test_admission_reject_event(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with service_for(
            db, memory_budget_bytes=1
        ) as service:
            with pytest.raises(AdmissionError):
                service.submit("SELECT g, median(x) FROM t GROUP BY g")
        rejects = telemetry.recorder.snapshot(kind="admission.reject")
        assert len(rejects) == 1 and rejects[0]["reason"]

    def test_cancel_recorded(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry, rows=3000)
        slow_sql = (
            "SELECT g, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS c, "
            "median(x) OVER (PARTITION BY g) AS m FROM t"
        )
        with service_for(db) as service:
            ticket = service.submit(slow_sql, timeout=1e-6)
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=30)
        record = telemetry.slowlog.snapshot()[-1]
        assert record["status"] == "cancelled"
        assert telemetry.recorder.snapshot(kind="query.cancel")

    def test_cancel_while_queued_recorded(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry, rows=30000)
        slow_sql = (
            "SELECT g, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS c, "
            "median(x) OVER (PARTITION BY g) AS m FROM t"
        )
        with service_for(
            db, max_concurrent=1
        ) as service:
            running = service.submit(slow_sql, use_result_cache=False)
            queued = service.submit(
                "SELECT count(*) FROM t", use_result_cache=False
            )
            assert service.cancel(queued.query_id) is True
            with pytest.raises(QueryCancelled):
                queued.result(timeout=30)
            running.result(timeout=120)
        cancelled = [
            r
            for r in telemetry.slowlog.snapshot()
            if r["status"] == "cancelled"
        ]
        assert len(cancelled) == 1
        assert cancelled[0]["query_id"] == queued.query_id
        assert telemetry.recorder.snapshot(kind="query.cancel")

    def test_stats_embed_telemetry_summary(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with service_for(db) as service:
            session = service.session()
            session.execute("SELECT count(*) FROM t", timeout=60)
            summary = service.stats()["telemetry"]
        assert summary["queries_recorded"] == 1
        assert summary["events_dropped"] == 0
        assert summary["fingerprints"] == 1


class TestVerifierEvent:
    def test_verification_failure_leaves_breadcrumb(self):
        previous = GLOBAL_TELEMETRY.enabled
        GLOBAL_TELEMETRY.enabled = True
        seq_before = GLOBAL_TELEMETRY.recorder.recorded
        try:
            with pytest.raises(PlanVerificationError):
                verify_dag(Dag(), context="test-dag")
        finally:
            GLOBAL_TELEMETRY.enabled = previous
        events = [
            e
            for e in GLOBAL_TELEMETRY.recorder.snapshot(
                kind="verifier.diagnostic"
            )
            if e["seq"] > seq_before
        ]
        assert events
        assert events[-1]["context"] == "test-dag"
        assert events[-1]["codes"] == ["no-sink"]


# ---------------------------------------------------------------------------
# Disabled path: one branch, zero allocations
# ---------------------------------------------------------------------------
class TestDisabledPath:
    def test_disabled_records_nothing(self):
        telemetry = Telemetry(TelemetryConfig(enabled=False))
        db = make_db(telemetry)
        db.sql("SELECT g, sum(x) FROM t GROUP BY g")
        db.sql("SELECT count(*) FROM t")
        assert telemetry.queries_recorded == 0
        assert telemetry.recorder.recorded == 0
        assert len(telemetry.workload) == 0
        assert telemetry.slowlog.recorded == 0

    def test_disabled_allocates_no_query_records(self, monkeypatch):
        # Count-based (not timing-based): the disabled path must not even
        # construct a QueryRecord.
        constructions = []

        class CountingRecord(QueryRecord):
            def __init__(self, *args, **kwargs):
                constructions.append(1)
                super().__init__(*args, **kwargs)

        import repro.observability.telemetry as telemetry_module

        monkeypatch.setattr(telemetry_module, "QueryRecord", CountingRecord)
        telemetry = Telemetry(TelemetryConfig(enabled=False))
        db = make_db(telemetry)
        db.sql("SELECT count(*) FROM t")
        assert constructions == []
        telemetry.enable()
        db.sql("SELECT count(*) FROM t")
        assert len(constructions) == 1

    def test_disabled_context_manager(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with telemetry.disabled():
            db.sql("SELECT count(*) FROM t")
        assert telemetry.queries_recorded == 0
        db.sql("SELECT count(*) FROM t")
        assert telemetry.queries_recorded == 1

    def test_disabled_service_takes_no_events(self):
        telemetry = Telemetry(TelemetryConfig(enabled=False))
        db = make_db(telemetry)
        with service_for(db) as service:
            session = service.session()
            session.execute("SELECT count(*) FROM t", timeout=60)
        assert telemetry.recorder.recorded == 0


# ---------------------------------------------------------------------------
# One record per statement, whichever way it ends
# ---------------------------------------------------------------------------
WINDOW_SQL = "SELECT g, o, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t"
BLOCKER_SQL = "SELECT g, count(*) FROM t GROUP BY g"
RUNTIME_ERROR_SQL = "SELECT cast(s AS int64) FROM words"

#: outcome -> the entry points it can happen through.
OUTCOMES = {
    "ok": ("direct", "service"),
    "parse_error": ("direct", "service"),
    "bind_error": ("direct", "service"),
    "execution_error": ("direct", "service"),
    "timeout_mid_region": ("direct", "service"),
    "cancel_while_queued": ("service",),
    "cancel_on_pre_execution_check": ("service",),
    "admission_reject": ("service",),
    "result_cache_hit": ("service",),
}


class RegionGate:
    """A probe on the one ``run_region`` bracket both schedulers share:
    parks the first region of a chosen statement until released, and can
    push a running query's deadline into the past mid-flight."""

    def __init__(self, monkeypatch):
        from repro.execution.scheduler import RegionScheduler

        self.parked = threading.Event()
        self.release = threading.Event()
        self.park_next = False
        self.expire_at_region = None
        self._entered = 0
        run_region = RegionScheduler.run_region

        def probed(scheduler, *args, **kwargs):
            self._entered += 1
            if self.park_next:
                self.park_next = False
                self.parked.set()
                assert self.release.wait(timeout=60)
            if self._entered == self.expire_at_region:
                scheduler.cancellation.deadline = 0.0  # long past
            return run_region(scheduler, *args, **kwargs)

        monkeypatch.setattr(RegionScheduler, "run_region", probed)


def _drive(outcome, via, db, gate):
    """Make ``outcome`` happen through ``via``; returns the expected
    ``[(sql, status), ...]`` of the statements that must each have left
    exactly one record (none for an admission reject)."""
    from repro.execution import CancellationToken

    sql, status, error = {
        "ok": (WINDOW_SQL, "ok", None),
        "parse_error": ("SELECT FROM nothing WHERE", "error", ReproError),
        "bind_error": ("SELECT nope FROM t", "error", ReproError),
        "execution_error": (RUNTIME_ERROR_SQL, "error", ValueError),
        "timeout_mid_region": (WINDOW_SQL, "cancelled", QueryCancelled),
    }.get(outcome, (WINDOW_SQL, None, None))
    if outcome == "timeout_mid_region":
        gate.expire_at_region = 2

    if via == "direct":
        config = db.config.clone(cancellation=CancellationToken.with_timeout(3600))
        if error is None:
            db.sql(sql, config=config)
        else:
            with pytest.raises(error):
                db.sql(sql, config=config)
        return [(sql, status)]

    budget = 1 if outcome == "admission_reject" else None
    with service_for(
        db, max_concurrent=1, memory_budget_bytes=budget
    ) as service:
        if status is not None:
            if error is None:
                service.submit(sql, timeout=3600).result(timeout=60)
            else:
                with pytest.raises(error):
                    service.submit(sql, timeout=3600).result(timeout=60)
            return [(sql, status)]
        if outcome == "admission_reject":
            with pytest.raises(AdmissionError):
                service.submit(WINDOW_SQL)
            return []
        if outcome == "result_cache_hit":
            first = service.submit(WINDOW_SQL).result(timeout=60)
            ticket = service.submit(WINDOW_SQL)
            assert ticket.from_result_cache and ticket.result() is first
            return [(WINDOW_SQL, "ok"), (WINDOW_SQL, "ok")]
        # The two cancels before execution: park a blocker in the only slot
        # so the statement under test is certainly still queued.
        gate.park_next = True
        blocker = service.submit(BLOCKER_SQL, use_result_cache=False)
        waiter = threading.Thread(target=blocker.result)  # runs the blocker
        waiter.start()
        assert gate.parked.wait(timeout=60)
        queued = service.submit(WINDOW_SQL, use_result_cache=False)
        assert queued.state == "queued"
        if outcome == "cancel_while_queued":
            assert service.cancel(queued.query_id) is True
        else:  # dispatched once the slot frees, dies on the token check
            queued.token.cancel()
        gate.release.set()
        waiter.join(timeout=60)
        assert not waiter.is_alive()
        blocker.result(timeout=60)
        with pytest.raises(QueryCancelled):
            queued.result(timeout=60)
        finished = [(BLOCKER_SQL, "ok"), (WINDOW_SQL, "cancelled")]
        # A queued cancel is recorded on the spot, before the blocker ends.
        return finished[::-1] if outcome == "cancel_while_queued" else finished


def _matrix_db(telemetry):
    db = make_db(telemetry, rows=600)
    db.create_table("words", {"s": "string"})
    db.insert("words", {"s": ["a", "b"]})
    return db


_MATRIX = [(o, via) for o, vias in OUTCOMES.items() for via in vias]


class TestOneRecordPerStatement:
    @pytest.mark.parametrize("outcome, via", _MATRIX)
    def test_exactly_one_record(self, monkeypatch, outcome, via):
        telemetry = fresh_telemetry()
        db = _matrix_db(telemetry)
        expected = _drive(outcome, via, db, RegionGate(monkeypatch))
        records = telemetry.slowlog.snapshot()
        assert [r["status"] for r in records] == [status for _, status in expected]
        # Every sink saw the same statements.
        assert telemetry.queries_recorded == len(expected)
        assert sum(t.count for t in telemetry.workload.templates()) == len(expected)
        finished = [
            e
            for e in telemetry.recorder.snapshot()
            if e["kind"] in ("query.finish", "query.error", "query.cancel")
        ]
        assert [e["query_id"] for e in finished] == [r["query_id"] for r in records]
        assert len({r["query_id"] for r in records}) == len(records)
        # A statement that got a plan carries that plan's fingerprint however
        # it ended; one that never did is named by its text.
        for record, (sql, _) in zip(records, expected):
            if outcome in ("parse_error", "bind_error"):
                assert record["fingerprint"] not in self.plan_fingerprints(db)
            else:
                assert record["fingerprint"] == self.plan_fingerprints(db)[sql]
        if outcome == "result_cache_hit":
            assert [r["result_cache_hit"] for r in records] == [False, True]

    @staticmethod
    def plan_fingerprints(db):
        return {
            sql: db.prepare(sql).fingerprint("lolepop", db.config)
            for sql in (WINDOW_SQL, BLOCKER_SQL, RUNTIME_ERROR_SQL)
        }

    @pytest.mark.parametrize("outcome, via", _MATRIX)
    def test_disabled_builds_no_record(self, monkeypatch, outcome, via):
        import repro.observability.telemetry as telemetry_module

        constructions = []

        class CountingRecord(QueryRecord):
            def __init__(self, *args, **kwargs):
                constructions.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(telemetry_module, "QueryRecord", CountingRecord)
        telemetry = Telemetry(TelemetryConfig(enabled=False))
        _drive(outcome, via, _matrix_db(telemetry), RegionGate(monkeypatch))
        assert constructions == []
        assert telemetry.queries_recorded == 0
        assert len(telemetry.workload) == 0
        assert telemetry.recorder.recorded == 0

    def test_cached_statement_hashes_its_plan_once(self, monkeypatch):
        import repro.server.cache as cache_module

        hashed = []
        real_hash = cache_module.key_hash

        def counting_hash(key):
            hashed.append(key)
            return real_hash(key)

        monkeypatch.setattr(cache_module, "key_hash", counting_hash)
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        for _ in range(100):
            db.sql(WINDOW_SQL)
        assert telemetry.queries_recorded == 100
        assert len(hashed) == 1
        assert len(telemetry.workload) == 1


# ---------------------------------------------------------------------------
# Environment overrides and error dumps
# ---------------------------------------------------------------------------
class TestConfig:
    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        assert TelemetryConfig().enabled is False
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert TelemetryConfig().enabled is True

    def test_env_slow_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_SLOW_MS", "250")
        assert TelemetryConfig().slow_query_threshold_s == 0.25

    def test_env_dump_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY_DUMP_DIR", str(tmp_path))
        assert TelemetryConfig().dump_on_error_dir == str(tmp_path)

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        assert TelemetryConfig(enabled=True).enabled is True

    def test_error_dump_written_and_rate_limited(self, tmp_path):
        telemetry = fresh_telemetry(dump_on_error_dir=str(tmp_path))
        db = make_db(telemetry)
        for _ in range(3):
            with pytest.raises(ReproError):
                db.sql("SELECT definitely broken syntax !!!")
        dumps = [n for n in os.listdir(tmp_path) if n.startswith("flight_")]
        assert len(dumps) == 1  # rate limit: one dump per interval
        with open(tmp_path / dumps[0]) as handle:
            doc = json.load(handle)
        assert any(e["kind"] == "query.error" for e in doc["events"])


# ---------------------------------------------------------------------------
# Report, renderer, dump file, CLI tool
# ---------------------------------------------------------------------------
def _load_report_tool():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools",
        "telemetry_report.py",
    )
    spec = importlib.util.spec_from_file_location("telemetry_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReport:
    def _loaded_telemetry(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with service_for(db) as service:
            session = service.session()
            for sql in (
                "SELECT g, sum(x) FROM t GROUP BY g",
                "SELECT g, median(x) FROM t GROUP BY g",
                "SELECT count(*) FROM t",
            ):
                session.execute(sql, timeout=60)
        return telemetry

    def test_report_document_shape(self):
        telemetry = self._loaded_telemetry()
        report = telemetry.report()
        assert report["schema"] == 1
        assert report["queries_recorded"] == 3
        assert report["flight_recorder"]["dropped"] == 0
        assert report["workload"]["tracked"] == 3
        assert report["slow_queries"]["observed"] == 3
        json.dumps(report)  # fully serializable

    def test_render_report_text(self):
        telemetry = self._loaded_telemetry()
        text = render_report(telemetry.report())
        assert "service telemetry — 3 queries recorded" in text
        assert "flight recorder:" in text
        assert "fingerprints tracked" in text
        assert "p95~" in text
        assert "drifting templates: none" in text

    def test_dump_and_cli_assertions(self, tmp_path):
        telemetry = self._loaded_telemetry()
        path = str(tmp_path / "telemetry.json")
        telemetry.dump(path)
        tool = _load_report_tool()
        assert tool.main([path]) == 0
        assert (
            tool.main(
                [path, "--assert-min-fingerprints", "1",
                 "--assert-zero-dropped"]
            )
            == 0
        )
        assert tool.main([path, "--assert-min-fingerprints", "999"]) == 1
        assert tool.main([path, "--json"]) == 0

    def test_cli_rejects_garbage(self, tmp_path):
        tool = _load_report_tool()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert tool.main([str(bad)]) == 2
        assert tool.main([str(tmp_path / "missing.json")]) == 2

    def test_reset_clears_every_sink(self):
        telemetry = self._loaded_telemetry()
        telemetry.reset()
        assert telemetry.queries_recorded == 0
        assert telemetry.recorder.recorded == 0
        assert len(telemetry.workload) == 0
        assert telemetry.slowlog.snapshot() == []


# ---------------------------------------------------------------------------
# Satellites: histogram quantiles, chrome-trace attribution
# ---------------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_to_dict_quantiles_block(self):
        histogram = Histogram((0.001, 0.01, 0.1, 1.0))
        for value in (0.002, 0.003, 0.004, 0.005, 0.5):
            histogram.observe(value)
        doc = histogram.to_dict()
        quantiles = doc["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        # Interpolated-within-bucket semantics: rank 2.5 of 5 lands in the
        # (0.001, 0.01] bucket holding 4 observations -> 0.001 + 0.625 *
        # 0.009; p95/p99 land in the (0.1, 1.0] bucket at ranks 4.75/4.95.
        assert quantiles["p50"] == pytest.approx(0.006625)
        assert quantiles["p95"] == pytest.approx(0.775)
        assert quantiles["p99"] == pytest.approx(0.955)
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        # Regression vs. the bucket-upper-bound bias: the interpolated
        # percentile must be strictly below the old upper-bound answers
        # (0.01 for p50, 1.0 for p95/p99) and within a bucket width of the
        # exact raw-sample percentile bench_server_throughput computes.
        assert quantiles["p50"] < 0.01 and quantiles["p95"] < 1.0
        exact = float(np.percentile([0.002, 0.003, 0.004, 0.005, 0.5], 95))
        assert abs(quantiles["p95"] - exact) <= 1.0 - 0.1


class TestChromeTraceAttribution:
    """The ids on a statement's root span are the ones on every Chrome
    event and in its record."""

    def test_span_args_carry_query_and_session(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with service_for(db) as service:
            session = service.session(collect_trace=True)
            result = session.execute("SELECT g, sum(x) FROM t GROUP BY g")
        (record,) = telemetry.slowlog.snapshot()
        assert result.trace.root.attrs["query_id"] == record["query_id"] == "q1"
        assert result.trace.root.attrs["session_id"] == record["session_id"] == "s1"
        events = chrome_trace_events(result.trace)
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans
        for event in spans:
            assert event["args"]["query_id"] == "q1"
            assert event["args"]["session"] == "s1"

    def test_direct_statement_carries_its_direct_id(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        result = db.sql(
            "SELECT count(*) FROM t", config=db.config.clone(collect_trace=True)
        )
        (record,) = telemetry.slowlog.snapshot()
        assert record["query_id"].startswith("d")
        events = chrome_trace_events(result.trace)
        assert events and all(e["args"]["query_id"] == record["query_id"] for e in events)
        assert all("session" not in e["args"] for e in events)

    def test_unattributed_trace_has_no_id_args(self):
        """An engine run nobody opened a statement for has a bare root."""
        from repro import LolepopEngine

        db = make_db(fresh_telemetry())
        config = db.config.clone(collect_trace=True)
        result = LolepopEngine(db.catalog, config).run(db.plan("SELECT count(*) FROM t"))
        events = chrome_trace_events(result.trace)
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans
        assert all("query_id" not in e["args"] for e in spans)


# ---------------------------------------------------------------------------
# Concurrent load: the acceptance-shaped end-to-end run (kept small)
# ---------------------------------------------------------------------------
class TestConcurrentLoad:
    def test_eight_clients_full_report(self):
        telemetry = fresh_telemetry(ring_capacity=16_384)
        db = make_db(telemetry, rows=1500)
        mix = [
            "SELECT count(*) FROM t",
            "SELECT g, sum(x) FROM t GROUP BY g",
            "SELECT g, median(x) FROM t GROUP BY g",
        ]
        errors = []
        with service_for(db, max_concurrent=4) as service:

            def client(index):
                session = service.session()
                rng = np.random.default_rng(100 + index)
                for _ in range(4):
                    sql = mix[int(rng.integers(len(mix)))]
                    try:
                        session.execute(sql, timeout=120)
                    except Exception as exc:  # noqa: BLE001 — asserted below
                        errors.append(exc)

            workers = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(120)

        assert errors == []
        assert telemetry.queries_recorded == 32
        assert telemetry.recorder.stats()["dropped"] == 0
        report = telemetry.report()
        assert 1 <= report["workload"]["tracked"] <= len(mix)
        assert sum(
            e["count"] for e in report["workload"]["templates"]
        ) == 32
        text = render_report(report)
        assert "32 queries recorded" in text

    def test_event_kinds_stay_in_vocabulary(self):
        telemetry = fresh_telemetry()
        db = make_db(telemetry)
        with service_for(db) as service:
            session = service.session()
            session.execute("SELECT count(*) FROM t", timeout=60)
            session.execute("SELECT count(*) FROM t", timeout=60)
        kinds = {e["kind"] for e in telemetry.recorder.snapshot()}
        assert kinds <= set(EVENT_KINDS)

