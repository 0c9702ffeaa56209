"""Tests for optimizer provenance (structured rewrite events), the
per-operator resource ledger, service wait-span export, the persistent
cardinality-feedback store, and the closed Q-error loop."""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import pickle
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Database
from repro.execution.context import EngineConfig
from repro.execution.trace import ExecutionTrace
from repro.observability.chrome import (
    REGION_PID,
    SERVICE_PID,
    chrome_trace_events,
    validate_trace_events,
)
from repro.observability.analyze import morsel_skew
from repro.logical import key_hash, template_key
from repro.lolepop.engine import QueryResult
import repro.observability.analyze as analyze_module
import repro.observability.feedback as feedback_module
from repro.observability.feedback import (
    FeedbackStore,
    group_signature,
    plan_signature,
)
from repro.observability.metrics import profile_dict
from repro.observability.provenance import RewriteEvent
from repro.observability.telemetry import (
    QueryRecord,
    Telemetry,
    TelemetryConfig,
)
from repro.observability.workload import BASELINE_WINDOW, WorkloadStats
from repro.storage import Batch
from repro.types import Schema

from tests.test_parallel_property import SEED, _make_db, _plans


def fresh_telemetry(**overrides) -> Telemetry:
    overrides.setdefault("enabled", True)
    overrides.setdefault("slow_query_threshold_s", 0.0)
    return Telemetry(TelemetryConfig(**overrides))


def correlated_db(feedback_dir, rows=4000, keys=40, telemetry=None):
    """A table where ``GROUP BY a, b`` defeats the independence assumption:
    ``b`` is a function of ``a``, so the statistics-based group estimate
    (``d(a) * d(b)`` capped by rows) overshoots the true group count by
    ~``keys``x. Only observed actuals can fix the estimate."""
    db = Database(
        num_threads=2,
        telemetry=telemetry or fresh_telemetry(),
        feedback_dir=str(feedback_dir),
    )
    db.create_table("c", {"a": "int64", "b": "int64", "v": "float64"})
    a = np.arange(rows) % keys
    db.insert("c", {"a": a, "b": a * 2, "v": np.ones(rows)})
    return db


DRIFT_SQL = "SELECT a, b, sum(v) FROM c GROUP BY a, b"


# ---------------------------------------------------------------------------
# RewriteEvent: display text + structured payload
# ---------------------------------------------------------------------------
class TestRewriteEvent:
    def make(self):
        return RewriteEvent(
            "elide_redundant_sorts x2",
            pass_name="elide_sorts",
            detail="x2",
            nodes=("#3 SORT [k ASC]", "#7 SORT [k ASC]"),
        )

    def test_renders_as_its_text(self):
        event = self.make()
        assert str(event) == event.text == "elide_redundant_sorts x2"
        assert f"  {event}" == "  elide_redundant_sorts x2"

    def test_structured_fields(self):
        event = self.make()
        assert event.pass_name == "elide_sorts"
        assert event.nodes == ("#3 SORT [k ASC]", "#7 SORT [k ASC]")
        assert event.detail == "x2"

    def test_to_dict_round_trip(self):
        doc = self.make().to_dict()
        assert doc == {
            "text": "elide_redundant_sorts x2",
            "pass": "elide_sorts",
            "detail": "x2",
            "nodes": ["#3 SORT [k ASC]", "#7 SORT [k ASC]"],
        }
        json.dumps(doc)  # JSON-safe
        # An event without a qualifier or nodes writes neither key.
        bare = RewriteEvent("reuse", pass_name="reuse").to_dict()
        assert bare == {"text": "reuse", "pass": "reuse"}

    def test_copy_and_pickle_survive(self):
        event = self.make()
        for restored in (
            copy.deepcopy(event), pickle.loads(pickle.dumps(event))
        ):
            assert restored.to_dict() == event.to_dict()
            assert restored.nodes == event.nodes

    def test_event_dicts_mirror_the_log(self):
        event = self.make()
        result = QueryResult(
            Batch.empty(Schema.of(("x", "int64"))), 0.0, 0.0, ExecutionTrace(), [],
            spill={}, query="q", config=EngineConfig(), rewrites=[event],
        )
        assert profile_dict(result)["rewrites"] == [event.to_dict()]


# ---------------------------------------------------------------------------
# Provenance end to end: optimizer -> profile -> EXPLAIN ANALYZE
# ---------------------------------------------------------------------------
class TestProvenanceEndToEnd:
    @pytest.fixture()
    def db(self):
        db = Database(num_threads=2, telemetry=fresh_telemetry())
        db.create_table("t", {"g": "int64", "x": "float64"})
        rng = np.random.default_rng(7)
        db.insert(
            "t",
            {"g": rng.integers(0, 5, 2000), "x": rng.random(2000)},
        )
        return db

    # Two aggregations over the same grouping produce a redundant-combine
    # (and sort-elision) opportunity, so rewrites fire deterministically.
    SQL = "SELECT g, sum(x), count(*) FROM t GROUP BY g ORDER BY g"

    def test_optimized_dag_events_have_the_record_shape(self, db):
        result = db.sql(self.SQL, config=EngineConfig(collect_trace=True))
        events = result.rewrites
        assert events, "optimizer recorded no structured rewrite events"
        assert all(isinstance(entry, RewriteEvent) for entry in events)
        for event in events:
            doc = event.to_dict()
            assert {"text", "pass"} <= set(doc) <= {
                "text", "pass", "detail", "nodes",
            }
        assert "remove_redundant_combines" in {e.pass_name for e in events}

    def test_profile_dict_writes_the_log_once(self, db):
        result = db.sql(self.SQL, config=EngineConfig(collect_trace=True))
        doc = profile_dict(result)
        assert "rewrite_events" not in doc
        assert doc["rewrites"] == [e.to_dict() for e in result.rewrites]
        json.dumps(doc["rewrites"])
        text = db.explain_analyze(self.SQL)
        assert "rewrites:" in text
        for event in result.rewrites:
            assert f"  {event}\n" in text

    def test_distinct_event_names_both_prices(self, db):
        # Beside a median over 30k rows, a near-unique DISTINCT argument
        # re-sorts the median's buffer instead of building a hash pair.
        db.create_table("u", {"k": "int64", "v": "float64", "w": "int64"})
        n = 30000
        db.insert(
            "u",
            {"k": np.arange(n) % 7, "v": np.arange(n) % 97 * 1.0, "w": np.arange(n)},
        )
        result = db.sql(
            "SELECT k, median(v), count(DISTINCT w) FROM u GROUP BY k",
            config=EngineConfig(collect_trace=True),
        )
        (event,) = [
            e for e in result.rewrites
            if e.pass_name == "cost_based_distinct"
        ]
        match = re.fullmatch(
            r"count\(DISTINCT w\): sort (\S+) < hash (\S+)", event.detail
        )
        assert match, event.detail
        sort_price, hash_price = map(float, match.groups())
        # The smaller price is the path taken: the plan re-sorts.
        assert sort_price < hash_price
        assert "HASHAGG" not in result.dags[0].operator_names()
        assert event.detail in str(event)


# ---------------------------------------------------------------------------
# Morsel skew + Chrome wait spans
# ---------------------------------------------------------------------------
def skewed_trace() -> ExecutionTrace:
    trace = ExecutionTrace()
    # Thread 1 is the straggler: 4x the mean morsel duration.
    trace.add_region(
        "HASHAGG", "p1", 0.0, 0.8,
        [(0, 0.0, 0.1, "HASHAGG", 0), (1, 0.0, 0.8, "HASHAGG", 1), (2, 0.0, 0.1, "HASHAGG", 2)],
        3,
    )
    return trace


class TestMorselSkew:
    def test_skew_attribution(self):
        entries = morsel_skew(skewed_trace())
        assert entries
        top = entries[0]
        assert top["operator"] == "HASHAGG"
        assert top["straggler_thread"] == 1
        assert top["max_s"] == pytest.approx(0.8)
        assert top["skew"] > 2.0

    def test_empty_trace(self):
        assert morsel_skew(None) == []
        assert morsel_skew(ExecutionTrace()) == []

    def test_chain_skew_is_taken_per_item_not_per_step(self):
        """Four equal partitions, each a heavy SORT and a light SCAN step:
        the steps differ 4x, the items not at all."""
        trace = chain_trace([0.004] * 4)
        (entry,) = morsel_skew(trace)
        assert entry["items"] == 4
        assert entry["skew"] == pytest.approx(1.0)
        assert entry["max_s"] == pytest.approx(entry["mean_s"]) == pytest.approx(0.005)
        (region,) = [e for e in chrome_trace_events(trace) if e["pid"] == REGION_PID]
        assert region["args"]["morsel_skew"] == pytest.approx(1.0)

    def test_a_straggler_chain_item_still_reads_skewed(self):
        trace = chain_trace([0.004, 0.004, 0.004, 0.016])
        (entry,) = morsel_skew(trace)
        assert entry["skew"] >= 1.5
        assert entry["max_s"] == pytest.approx(0.017)
        assert entry["straggler_thread"] == 3
        (region,) = [e for e in chrome_trace_events(trace) if e["pid"] == REGION_PID]
        assert region["args"]["morsel_skew"] == pytest.approx(entry["skew"])
        assert region["args"]["straggler_thread"] == 3


def chain_trace(sorts) -> ExecutionTrace:
    """A chain region of one item per entry of ``sorts``: item ``i`` runs
    on thread ``i``, a SORT of ``sorts[i]`` seconds then a 1 ms SCAN."""
    units = []
    for item, sort in enumerate(sorts):
        units.append((item, 0.0, sort, "sort", item))
        units.append((item, sort, sort + 0.001, "scan", item))
    trace = ExecutionTrace()
    trace.add_region("sort+scan", "p1", 0.0, max(sorts) + 0.001, units, len(sorts))
    return trace


class TestChromeWaitSpans:
    def test_wait_spans_schema_and_placement(self):
        trace = skewed_trace()
        trace.add("stage", "admission", 10.0, 10.05)
        trace.add("stage", "queue", 10.05, 10.30)
        events = chrome_trace_events(trace)
        validate_trace_events(events)  # full span schema holds
        service = [e for e in events if e["pid"] == SERVICE_PID]
        names = {e["name"] for e in service}
        assert names == {"service:queue-wait", "service:admission-reserve"}
        # Waits precede execution: spans tile [-0.30s, 0] in order.
        by_name = {e["name"]: e for e in service}
        queue = by_name["service:queue-wait"]
        reserve = by_name["service:admission-reserve"]
        assert queue["ts"] == pytest.approx(-0.30 * 1e6)
        assert queue["ts"] + queue["dur"] == pytest.approx(reserve["ts"])
        assert reserve["ts"] + reserve["dur"] == pytest.approx(0.0, abs=1e-6)

    def test_zero_waits_emit_no_service_spans(self):
        events = chrome_trace_events(skewed_trace())
        assert not [e for e in events if e["pid"] == SERVICE_PID]

    def test_region_spans_carry_skew_args(self):
        events = chrome_trace_events(skewed_trace())
        (region,) = [e for e in events if e["pid"] == REGION_PID]
        assert region["args"]["items"] == 3
        assert region["args"]["straggler_thread"] == 1
        assert region["args"]["morsel_skew"] > 2.0

    def test_config_waits_reach_trace(self):
        """The service's waits ride on the statement's root span — per-query
        attribution is not configuration — and reach the trace a session's
        statement returns."""
        from repro import QueryService, ServiceConfig
        from repro.execution.context import ExecutionContext

        with pytest.raises(TypeError):
            EngineConfig(queue_wait_s=0.4)
        assert ExecutionContext(EngineConfig(collect_trace=True)).trace.root.stages() == {}
        db = Database(telemetry=fresh_telemetry())
        db.create_table("t", {"g": "int64", "x": "float64"})
        db.insert("t", {"g": [1, 2, 1], "x": [0.5, 1.5, 2.5]})
        with QueryService(db) as service:
            result = service.session(collect_trace=True).execute(
                "SELECT g, sum(x) FROM t GROUP BY g"
            )
        assert set(result.trace.root.stages()) == {"parse_bind", "admission", "queue", "execute"}
        service_lane = [e for e in chrome_trace_events(result.trace) if e["pid"] == SERVICE_PID]
        assert {e["name"] for e in service_lane} == {
            "service:queue-wait", "service:admission-reserve"
        }


# ---------------------------------------------------------------------------
# Feedback store: persistence, tolerance, bounds
# ---------------------------------------------------------------------------
class FakePlan:
    def key(self):
        return ("scan", "fake", ())


def fake_observation(actual=100):
    return (plan_signature(FakePlan()), float(actual))


class TestFeedbackStore:
    def test_round_trip_across_restarts(self, tmp_path):
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation(actual=300)])
        store.flush()
        reopened = FeedbackStore(str(tmp_path))
        assert reopened.fingerprints() == ["abc123"]
        doc = reopened.get("abc123")
        assert doc["schema_version"] == 4
        assert doc["slots"] == {plan_signature(FakePlan()): {"rows": 300.0, "observations": 1}}

    def test_actuals_smooth_with_ewma(self, tmp_path):
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation(actual=100)])
        store.observe("abc123", "select 1", [fake_observation(actual=200)])
        (only,) = store.get("abc123")["slots"].values()
        # EWMA: 0.7 * 100 + 0.3 * 200
        assert only == {"rows": pytest.approx(130.0), "observations": 2}

    def test_corrupt_file_tolerated_with_warning(self, tmp_path):
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation()])
        store.flush()
        (tmp_path / "fb_dead.json").write_text("{not json")
        (tmp_path / "fb_beef.json").write_text('{"schema": 999}')
        # Files from before signatures were plan-key hashes (schema 1),
        # before ROOT had its own slot (schema 2) and before slots were
        # keyed by signature (schema 3).
        for version in (1, 2, 3):
            old = dict(store.get("abc123"), schema_version=version, fingerprint=f"old{version}")
            (tmp_path / f"fb_old{version}.json").write_text(json.dumps(old))
        telemetry = fresh_telemetry()
        reopened = FeedbackStore(str(tmp_path), telemetry=telemetry)
        assert reopened.fingerprints() == ["abc123"]  # good file survives
        warnings = [
            e
            for e in telemetry.recorder.snapshot()
            if e["kind"] == "feedback.load_error"
        ]
        assert len(warnings) == 5

    def test_schema_3_file_is_skipped(self, tmp_path):
        """A file of the position-keyed schema, as the store wrote it
        before slots were keyed by signature: one ``feedback.load_error``,
        no exception, nothing calibrated from it."""
        slot = {
            "name": "ROOT", "describe": "", "signature": plan_signature(FakePlan()),
            "est_rows": 10.0, "actual_rows": 300.0, "observations": 1, "q_error": 30.0,
        }
        doc = {
            "schema_version": 3, "fingerprint": "abc123", "sql": "select 1",
            "updated": 1.0, "operators": {"-1": slot, "0": dict(slot, name="SOURCE")},
        }
        (tmp_path / "fb_abc123.json").write_text(json.dumps(doc))
        telemetry = fresh_telemetry()
        store = FeedbackStore(str(tmp_path), telemetry=telemetry)
        (error,) = telemetry.recorder.snapshot(kind="feedback.load_error")
        assert error["file"] == "fb_abc123.json" and "schema_version 3" in error["error"]
        assert store.fingerprints() == [] and store.rows_for(FakePlan()) is None

    def test_slot_without_rows_is_a_value_error(self, tmp_path):
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation()])
        store.flush()
        path = tmp_path / "fb_abc123.json"
        doc = json.loads(path.read_text())
        for payload in ({"observations": 1}, 300.0):
            doc["slots"] = {plan_signature(FakePlan()): payload}
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="has no rows"):
                feedback_module.load_document(str(path))

    def test_retired_byte_fields_still_load(self, tmp_path):
        """A slot that still carries fields the store no longer keeps (the
        byte counters and the stored estimate of older slots) loads,
        calibrates, and drops them."""
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation(actual=300)])
        store.flush()
        path = tmp_path / "fb_abc123.json"
        doc = json.loads(path.read_text())
        retired = {"bytes_materialized": 4096, "est_rows": 10.0, "q_error": 30.0, "name": "ROOT"}
        for slot in doc["slots"].values():
            slot.update(retired)
        path.write_text(json.dumps(doc))
        telemetry = fresh_telemetry()
        reopened = FeedbackStore(str(tmp_path), telemetry=telemetry)
        assert telemetry.recorder.snapshot(kind="feedback.load_error") == []
        assert reopened.fingerprints() == ["abc123"]
        assert reopened.rows_for(FakePlan()) == pytest.approx(300.0)
        (slot,) = reopened.get("abc123")["slots"].values()
        assert not set(retired) & set(slot)

    def test_every_truncation_is_skipped(self, tmp_path):
        """A file cut off at any byte is skipped with a breadcrumb, and the
        intact file beside it still loads."""
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation(actual=300)])
        store.flush()
        data = (tmp_path / "fb_abc123.json").read_bytes()
        cut_files = [f"fb_cut{cut:05d}.json" for cut in range(len(data))]
        for cut, name in enumerate(cut_files):
            (tmp_path / name).write_bytes(data[:cut])
        telemetry = fresh_telemetry(ring_capacity=2 * len(data))
        reopened = FeedbackStore(str(tmp_path), telemetry=telemetry)
        assert reopened.fingerprints() == ["abc123"]
        assert reopened.rows_for(FakePlan()) == pytest.approx(300.0)
        errors = telemetry.recorder.snapshot(kind="feedback.load_error")
        assert sorted(e["file"] for e in errors) == cut_files

    def test_failed_flush_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A flush that fails mid-write removes its temp file and keeps the
        last good document; the query it followed still succeeds."""
        import repro.observability.feedback as feedback_module

        def failing_dump(doc, handle, **kwargs):
            handle.write(json.dumps(doc)[:20])
            raise OSError("no space left on device")

        directory = tmp_path / "fb"
        db = correlated_db(directory)
        db.sql(DRIFT_SQL)  # the first observation flushes a good file
        (good,) = directory.glob("fb_*.json")
        written = good.read_bytes()
        monkeypatch.setattr(
            feedback_module, "json", SimpleNamespace(dump=failing_dump, load=json.load)
        )
        for _ in range(9):  # past the flush throttle's next write
            assert len(db.sql(DRIFT_SQL).batch) == 40
        db.feedback.flush()
        assert [p.name for p in directory.iterdir()] == [good.name]
        assert good.read_bytes() == written

    def test_bounded_size_evicts_oldest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(feedback_module, "MAX_FILES", 3)
        telemetry = fresh_telemetry()
        store = FeedbackStore(str(tmp_path), telemetry=telemetry)
        for index in range(5):
            store.observe(f"fp{index}", "select 1", [fake_observation()])
        store.flush()
        assert len(store) == 3
        files = sorted(p.name for p in tmp_path.glob("fb_*.json"))
        assert len(files) == 3
        assert "fb_fp0.json" not in files and "fb_fp1.json" not in files
        evictions = [
            e
            for e in telemetry.recorder.snapshot()
            if e["kind"] == "feedback.evict"
        ]
        assert evictions

    def test_restart_keeps_least_recently_updated_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(feedback_module, "MAX_FILES", 3)
        store = FeedbackStore(str(tmp_path))
        for fingerprint in ("a", "b", "c"):
            store.observe(fingerprint, "select 1", [fake_observation()])
        store.flush()
        # Age order b, c, a differs from the name order a, b, c.
        for fingerprint, updated in (("a", 300.0), ("b", 100.0), ("c", 200.0)):
            path = tmp_path / f"fb_{fingerprint}.json"
            doc = json.loads(path.read_text())
            path.write_text(json.dumps(dict(doc, updated=updated)))
        reopened = FeedbackStore(str(tmp_path))
        reopened.observe("d", "select 1", [fake_observation()])
        assert reopened.fingerprints() == ["a", "c", "d"]
        assert not (tmp_path / "fb_b.json").exists()

    def test_replan_throttle_is_evicted_with_its_template(self, tmp_path):
        workload = WorkloadStats(capacity=1)
        store = FeedbackStore(str(tmp_path))

        def drifting(count):
            for n in range(count):
                q_error = 1.0 if n < BASELINE_WINDOW else 50.0
                template = workload.observe("A", "select 1", "lolepop", 0.01, q_error)
            assert template.count == count and template.drift_ratio() > 2.0
            return template

        def replans(template):
            record = QueryRecord("q", "select 1", "A", rows=100)
            prepared = SimpleNamespace(plan=FakePlan(), est_rows=10.0, dag_templates={})
            result = SimpleNamespace(trace=None, dags=())
            return store.record_execution(record, prepared, result, template)

        assert replans(drifting(20)) is True
        workload.observe("B", "select 2", "lolepop", 0.01)  # evicts A
        assert workload.get("A") is None
        # A's new template starts its own count: no stale throttle.
        assert replans(drifting(12)) is True

    def test_replan_and_report_share_one_drift_rule(self, tmp_path):
        """Seven runs at Q-error 1 and then runs at 100: the ratio passes the
        threshold at count 8, but neither the store nor the report calls the
        template drifting before count 12."""
        workload = WorkloadStats()
        store = FeedbackStore(str(tmp_path))
        record = QueryRecord("q", "select 1", "A", rows=100)
        result = SimpleNamespace(trace=None, dags=())
        for n in range(12):
            template = workload.observe("A", "select 1", "lolepop", 0.01, 1.0 if n < 7 else 100.0)
            prepared = SimpleNamespace(plan=FakePlan(), est_rows=10.0, dag_templates={})
            replanned = store.record_execution(record, prepared, result, template)
            assert replanned is (n == 11)
            assert replanned is bool(workload.drifting_templates())
        assert template.count == 12

    def test_calibration_lookup(self, tmp_path):
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation(actual=250)])
        assert store.rows_for(FakePlan()) == pytest.approx(250.0)

        class OtherPlan:
            def key(self):
                return ("scan", "other", ())

        assert store.rows_for(OtherPlan()) is None


# ---------------------------------------------------------------------------
# The closed loop: replay a drifting workload twice
# ---------------------------------------------------------------------------
class TestClosedLoop:
    def run_workload(self, db, repetitions=6):
        worst = 0.0
        for _ in range(repetitions):
            result = db.sql(DRIFT_SQL)
            assert len(result.batch) == 40
        for template in db.telemetry.workload.templates():
            worst = max(worst, template.q_max)
        return worst

    def test_second_run_has_strictly_lower_max_q_error(self, tmp_path):
        first = correlated_db(tmp_path / "fb")
        q_first = self.run_workload(first)
        # Independence assumption overshoots: d(a)*d(b) >> true groups.
        assert q_first > 2.0
        first.feedback.flush()

        second = correlated_db(tmp_path / "fb")
        q_second = self.run_workload(second)
        assert q_second < q_first
        assert q_second == pytest.approx(1.0, abs=0.5)

    def test_estimator_consults_calibration(self, tmp_path):
        first = correlated_db(tmp_path / "fb")
        self.run_workload(first)
        first.feedback.flush()
        second = correlated_db(tmp_path / "fb")
        estimate = second.estimate(DRIFT_SQL)
        assert estimate == pytest.approx(40.0, rel=0.5)

    def test_admission_sees_the_calibrated_row_count(self, tmp_path):
        """The query service sizes its reservation with the database's own
        (feedback-calibrated) estimator, so admission and ``db.estimate``
        agree on the same plan."""
        from repro import QueryService, ServiceConfig
        from repro.logical.cardinality import CardinalityEstimator
        from repro.server.admission import estimate_memory_bytes
        from repro.stats import StatisticsCache

        first = correlated_db(tmp_path / "fb")
        self.run_workload(first)
        first.feedback.flush()
        second = correlated_db(tmp_path / "fb")
        plan = second.plan(DRIFT_SQL)
        uncalibrated = estimate_memory_bytes(
            plan, CardinalityEstimator(StatisticsCache(second.catalog))
        )
        config = ServiceConfig(memory_budget_bytes=1 << 40)
        with QueryService(second, config) as service:
            ticket = service.submit(DRIFT_SQL)
            ticket.result(timeout=30)
        assert ticket.est_bytes == estimate_memory_bytes(plan, second.estimator)
        assert ticket.est_bytes < uncalibrated

    def test_drift_triggers_replan_and_cache_discard(self, tmp_path, monkeypatch):
        telemetry = fresh_telemetry()
        db = correlated_db(tmp_path / "fb", telemetry=telemetry)
        prepared = db.prepare(DRIFT_SQL)
        fingerprint = None

        result = db.sql(DRIFT_SQL)
        for record_fingerprint in (
            t.fingerprint for t in telemetry.workload.templates()
        ):
            fingerprint = record_fingerprint
        assert fingerprint is not None

        class DriftingTemplate:
            count = 20
            replanned_at = None

            @staticmethod
            def drift_ratio():
                return 5.0

            @staticmethod
            def drifting():
                return True

        # The store's entry point, as Telemetry.record_execution calls it.
        record = QueryRecord("d0", DRIFT_SQL, fingerprint, rows=len(result))
        args = (record, prepared, result, DriftingTemplate())
        assert db.feedback.record_execution(*args) is True
        assert prepared.est_rows is None
        assert not prepared.dag_templates
        replans = [
            e
            for e in telemetry.recorder.snapshot()
            if e["kind"] == "feedback.replan"
        ]
        assert replans and replans[0]["drift_ratio"] == pytest.approx(5.0)
        # Throttled: a second drifting observation within REPLAN_INTERVAL
        # does not discard again.
        assert db.feedback.record_execution(*args) is False
        assert (
            len(
                [
                    e
                    for e in telemetry.recorder.snapshot()
                    if e["kind"] == "feedback.replan"
                ]
            )
            == 1
        )
        # The facade discards exactly the plan-cache entry it is told to.
        assert db.prepare(DRIFT_SQL) is prepared
        monkeypatch.setattr(db.feedback, "record_execution", lambda *a: True)
        db.sql(DRIFT_SQL)
        assert db.prepare(DRIFT_SQL) is not prepared


class TestTracedAndUntracedRuns:
    """A statement's Q-error and its feedback slots do not depend on
    whether the run was traced."""

    def test_a_traced_run_reads_the_same_q_error(self, tmp_path):
        """The root estimate (7 groups) is right, the filter's (666 of 10
        rows) is not: ten untraced runs and then a traced one are eleven
        root Q-errors of 1.0, so nothing drifts and the plan is kept."""
        telemetry = fresh_telemetry()
        db = Database(num_threads=2, telemetry=telemetry, feedback_dir=str(tmp_path / "fb"))
        db.create_table("t", {"g": "int64", "v": "float64"})
        db.insert("t", {"g": np.arange(2000) % 7, "v": np.linspace(0.0, 1.0, 2000)})
        sql = "SELECT g, count(*) FROM t WHERE v * 2 > 1.99 GROUP BY g"
        for _ in range(10):
            db.sql(sql)
        db.sql(sql, config=db.config.clone(collect_trace=True))
        (template,) = telemetry.workload.templates()
        assert template.count == 11
        assert template.drift_ratio() == pytest.approx(1.0)
        assert telemetry.recorder.snapshot(kind="feedback.replan") == []
        # The traced run still taught the store its badly estimated filter.
        from repro.logical.cardinality import CardinalityEstimator
        from repro.stats import StatisticsCache

        (aggregate,) = db.plan(sql).children
        assert db.feedback.rows_for(aggregate.child) == 10.0
        assert CardinalityEstimator(StatisticsCache(db.catalog)).rows(aggregate.child) > 100.0

    def test_root_and_operators_keep_their_own_slots(self, tmp_path):
        """A traced run then an untraced one: the root's signature has its
        own slot, and the SOURCE's slot keeps its rows."""
        db = correlated_db(tmp_path / "fb")
        db.sql(DRIFT_SQL, config=db.config.clone(collect_trace=True))
        db.sql(DRIFT_SQL)
        (fingerprint,) = db.feedback.fingerprints()
        slots = db.feedback.get(fingerprint)["slots"]
        plan = db.plan(DRIFT_SQL)
        (aggregate,) = plan.children
        assert slots[plan_signature(plan)] == {"rows": 40.0, "observations": 2}
        assert slots[plan_signature(aggregate.child)] == {"rows": 4000.0, "observations": 1}
        assert db.feedback.rows_for(plan) == pytest.approx(40.0)
        assert db.feedback.rows_for(aggregate.child) == pytest.approx(4000.0)
        assert db.feedback.groups_for(
            aggregate.child, aggregate.group_names
        ) == pytest.approx(40.0)

    def test_a_traced_run_estimates_no_node(self, tmp_path, monkeypatch):
        """The store keeps measurements only: a traced run with a store
        records its nodes' rows without asking the estimator about them."""
        calls = []

        def estimate_dag_rows(*args):
            calls.append(args)
            raise AssertionError("a traced run estimated its nodes")

        monkeypatch.setattr(analyze_module, "estimate_dag_rows", estimate_dag_rows)
        monkeypatch.setattr(feedback_module, "estimate_dag_rows", estimate_dag_rows, raising=False)
        db = correlated_db(tmp_path / "fb")
        db.sql(DRIFT_SQL, config=db.config.clone(collect_trace=True))
        assert calls == []
        (aggregate,) = db.plan(DRIFT_SQL).children
        assert db.feedback.rows_for(aggregate.child) == 4000.0


class TestLiteralVariants:
    """Two literal sets of one statement share a fingerprint but not a
    signature: each calibrates to its own rows, not to a blend of both."""

    SQL = "SELECT g, count(*) FROM t WHERE v > {} GROUP BY g"

    def test_literal_variants_calibrate_separately(self, tmp_path):
        db = Database(telemetry=fresh_telemetry(), feedback_dir=str(tmp_path / "fb"))
        db.create_table("t", {"g": "int64", "v": "float64"})
        db.insert("t", {"g": np.arange(2000), "v": (np.arange(2000) + 0.5) / 2000})
        wide, narrow = self.SQL.format(0.5), self.SQL.format(0.9)
        assert len(db.sql(wide)) == 1000 and len(db.sql(narrow)) == 200
        assert len(db.feedback.fingerprints()) == 1
        assert db.feedback.rows_for(db.plan(wide)) == pytest.approx(1000.0)
        assert db.feedback.rows_for(db.plan(narrow)) == pytest.approx(200.0)

    def test_signature_cap_drops_the_least_recently_observed(self, tmp_path, monkeypatch):
        """A fingerprint keeps its newest signatures; a dropped one falls
        back to the same signature's slot under another fingerprint."""
        monkeypatch.setattr(feedback_module, "MAX_SIGNATURES_PER_FINGERPRINT", 2)
        store = FeedbackStore(str(tmp_path))
        store.observe("a", "select 1", [("s1", 10.0), ("s2", 20.0)])
        store.observe("a", "select 1", [("s1", 10.0)])
        store.observe("b", "select 2", [("s2", 50.0)])
        store.observe("a", "select 1", [("s3", 30.0)])  # s2 is a's oldest
        assert list(store.get("a")["slots"]) == ["s1", "s3"]
        assert [store._lookup_signature(s) for s in ("s1", "s2", "s3")] == [10.0, 50.0, 30.0]
        store.flush()
        assert list(FeedbackStore(str(tmp_path)).get("a")["slots"]) == ["s1", "s3"]


# ---------------------------------------------------------------------------
# One plan identity: LogicalPlan.key() and its template projection
# ---------------------------------------------------------------------------
WIDE_G = (
    "SELECT a, b, c, d, e, f, g % 2 AS k, count(*) FROM w "
    "GROUP BY a, b, c, d, e, f, g % 2"
)
WIDE_H = (
    "SELECT a, b, c, d, e, f, h % 4 AS k, count(*) FROM w "
    "GROUP BY a, b, c, d, e, f, h % 4"
)


def wide_db(feedback_dir=None):
    """Eight int columns; ``g % 2`` has 2 groups and ``h % 4`` has 4."""
    db = Database(
        telemetry=fresh_telemetry(),
        feedback_dir=None if feedback_dir is None else str(feedback_dir),
    )
    db.create_table("w", {name: "int64" for name in "abcdefgh"})
    data = {name: np.zeros(400, dtype=np.int64) for name in "abcdef"}
    data["g"] = data["h"] = np.arange(400)
    db.insert("w", data)
    return db


class TestSevenKeyCollision:
    """``Project.label()`` prints six items and then ``...``: two GROUP BYs
    that differ only in their seventh key had one label signature, so what
    one learned calibrated the other (reproduced at 790bf17)."""

    def test_signatures_differ(self):
        db = wide_db()
        plan_g, plan_h = db.plan(WIDE_G), db.plan(WIDE_H)
        assert plan_signature(plan_g) != plan_signature(plan_h)
        # The group-count question of each statement's HASHAGG.
        agg_g, agg_h = plan_g.children[0], plan_h.children[0]
        assert agg_g.group_names == agg_h.group_names
        assert group_signature(agg_g.child, agg_g.group_names) != group_signature(
            agg_h.child, agg_h.group_names
        )

    @pytest.mark.parametrize("collect_trace", [False, True])
    def test_no_shared_calibration_entry(self, tmp_path, collect_trace):
        db = wide_db(tmp_path / "fb")
        unlearned = wide_db().estimate(WIDE_H)
        config = db.config.clone(collect_trace=collect_trace)
        for _ in range(3):
            assert len(db.sql(WIDE_G, config=config)) == 2
        assert db.estimate(WIDE_G) == pytest.approx(2.0)
        # H has never run: nothing G taught may answer for it.
        assert db.estimate(WIDE_H) == pytest.approx(unlearned)
        for _ in range(3):
            assert len(db.sql(WIDE_H, config=config)) == 4
        assert db.estimate(WIDE_G) == pytest.approx(2.0)
        assert db.estimate(WIDE_H) == pytest.approx(4.0)


def _with_where(sql, predicate):
    """A corpus statement (one ``FROM t``) with a filter added, ANDed onto
    the statement's own WHERE if it has one."""
    assert sql.count(" FROM t") == 1
    if " WHERE " in sql:
        return sql.replace(" WHERE ", f" WHERE {predicate} AND ")
    return sql.replace(" FROM t", f" FROM t WHERE {predicate}")


@pytest.fixture(scope="module")
def corpus_db():
    return _make_db(random.Random(SEED))


class TestPlanKey:
    @pytest.mark.parametrize("case", _plans(), ids=lambda c: f"plan{c[0]}")
    def test_corpus_properties(self, corpus_db, case):
        _, sql = case
        key = corpus_db.plan(sql).key()
        hash(key)  # usable as a dict key
        # Equal SQL (modulo spelling) => equal key.
        assert corpus_db.plan(sql).key() == key
        assert corpus_db.plan("  " + sql.replace(" FROM ", "  from ")).key() == key
        # A changed literal => another key, the same template.
        low = corpus_db.plan(_with_where(sql, "y > 1.5")).key()
        high = corpus_db.plan(_with_where(sql, "y > 2.5")).key()
        assert low != high and low != key
        assert template_key(low) == template_key(high)
        assert template_key(low) != template_key(key)
        # A changed column or LIMIT => another template.
        other_column = corpus_db.plan(_with_where(sql, "x > 1.5")).key()
        assert template_key(other_column) != template_key(low)
        limits = [corpus_db.plan(f"{sql} LIMIT {n}").key() for n in (5, 6)]
        assert template_key(limits[0]) != template_key(limits[1])
        assert template_key(limits[0]) != template_key(key)

    def test_corpus_keys_separate_distinct_statements(self, corpus_db):
        by_key = {}
        for _, sql in _plans():
            by_key.setdefault(corpus_db.plan(sql).key(), set()).add(sql)
        assert all(len(sqls) == 1 for sqls in by_key.values())

    @pytest.mark.parametrize(
        "one, other",
        [
            # aggregate function, DISTINCT, percentile fraction
            ("SELECT g, sum(x) FROM t GROUP BY g", "SELECT g, max(x) FROM t GROUP BY g"),
            (
                "SELECT g, count(x) FROM t GROUP BY g",
                "SELECT g, count(DISTINCT x) FROM t GROUP BY g",
            ),
            (
                "SELECT percentile_cont(0.25) WITHIN GROUP (ORDER BY x) FROM t",
                "SELECT percentile_cont(0.75) WITHIN GROUP (ORDER BY x) FROM t",
            ),
            # frame bounds, frame mode, window order direction, lag offset
            (
                "SELECT sum(x) OVER (ORDER BY y ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM t",
                "SELECT sum(x) OVER (ORDER BY y ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) FROM t",
            ),
            (
                "SELECT sum(x) OVER (ORDER BY y ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t",
                "SELECT sum(x) OVER (ORDER BY y RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t",
            ),
            (
                "SELECT rank() OVER (PARTITION BY g ORDER BY y) FROM t",
                "SELECT rank() OVER (PARTITION BY g ORDER BY y DESC) FROM t",
            ),
            (
                "SELECT lag(x, 1) OVER (ORDER BY y) FROM t",
                "SELECT lag(x, 2) OVER (ORDER BY y) FROM t",
            ),
            # join key, join kind
            (
                "SELECT a.x FROM t a JOIN t b ON a.g = b.g",
                "SELECT a.x FROM t a JOIN t b ON a.g = b.h",
            ),
            (
                "SELECT a.x FROM t a JOIN t b ON a.g = b.g",
                "SELECT a.x FROM t a LEFT JOIN t b ON a.g = b.g",
            ),
            # grouping sets, sort direction, columns read by the scan
            (
                "SELECT g, h, sum(x) FROM t GROUP BY ROLLUP (g, h)",
                "SELECT g, h, sum(x) FROM t GROUP BY CUBE (g, h)",
            ),
            ("SELECT g FROM t ORDER BY g", "SELECT g FROM t ORDER BY g DESC"),
            ("SELECT g FROM t", "SELECT g, h FROM t"),
        ],
    )
    def test_every_node_parameter_reaches_the_template(self, corpus_db, one, other):
        assert template_key(corpus_db.plan(one).key()) != template_key(
            corpus_db.plan(other).key()
        )

    def test_name_lists_are_never_read_as_literals(self):
        # ``GROUP BY lit, int64, x`` spells a three-name list that a careless
        # template projection would take for a ("lit", dtype, value) leaf.
        db = Database()
        db.create_table(
            "n", {"lit": "int64", "int64": "int64", "x": "int64", "y": "int64"}
        )
        one = db.plan('SELECT count(*) FROM n GROUP BY lit, "int64", x').key()
        other = db.plan('SELECT count(*) FROM n GROUP BY lit, "int64", y').key()
        assert template_key(one) != template_key(other)

    def test_key_hash_is_short_and_stable(self, corpus_db):
        key = corpus_db.plan("SELECT g, sum(x) FROM t WHERE y > 1 GROUP BY g").key()
        assert key_hash(key) == key_hash(corpus_db.plan(
            "select g, sum(x) from t where y > 1 group by g"
        ).key())
        assert len(key_hash(key)) == 16 and int(key_hash(key), 16) >= 0


# ---------------------------------------------------------------------------
# Disabled path stays allocation-free
# ---------------------------------------------------------------------------
class TestDisabledPath:
    def test_feedback_not_consulted_when_telemetry_disabled(
        self, tmp_path, monkeypatch
    ):
        telemetry = Telemetry(TelemetryConfig(enabled=False))
        db = correlated_db(tmp_path / "fb", telemetry=telemetry)
        observations = []
        monkeypatch.setattr(
            db.feedback,
            "observe",
            lambda *args, **kwargs: observations.append(1),
        )
        db.sql(DRIFT_SQL)
        assert observations == []
        telemetry.enable()
        db.sql(DRIFT_SQL)
        assert len(observations) == 1

    def test_no_store_without_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_FEEDBACK_DIR", raising=False)
        assert Database().feedback is None


# ---------------------------------------------------------------------------
# Tools: plan_diff
# ---------------------------------------------------------------------------
def _load_tool(name):
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools",
        f"{name}.py",
    )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFeedbackReportCheck:
    """``--assert-feedback-nonempty`` counts what the store would load."""

    def test_counts_only_documents_the_store_loads(self, tmp_path):
        store = FeedbackStore(str(tmp_path))
        store.observe("abc123", "select 1", [fake_observation()])
        store.flush()
        good = (tmp_path / "fb_abc123.json").read_text()
        (tmp_path / "fb_cut.json").write_text(good[: len(good) // 2])
        old = dict(json.loads(good), schema_version=3, fingerprint="old3")
        (tmp_path / "fb_old3.json").write_text(json.dumps(old))
        tool = _load_tool("telemetry_report")
        count, skipped = tool._feedback_documents(str(tmp_path))
        assert count == 1
        assert [name.split()[0] for name in skipped] == ["fb_cut.json", "fb_old3.json"]
        (tmp_path / "fb_abc123.json").unlink()
        assert tool._feedback_documents(str(tmp_path))[0] == 0

    def test_a_skipped_document_fails_the_check(self, tmp_path, capsys):
        """A fresh directory that holds a document the store would skip
        means its writer and its loader disagree: exit 1, even beside a
        good document."""
        report = tmp_path / "report.json"
        report.write_text(json.dumps(fresh_telemetry().report()))
        feedback = tmp_path / "fb"
        store = FeedbackStore(str(feedback))
        store.observe("abc123", "select 1", [fake_observation()])
        store.flush()
        tool = _load_tool("telemetry_report")
        argv = [str(report), "--assert-feedback-nonempty", str(feedback)]
        assert tool.main(argv) == 0
        (feedback / "fb_cut.json").write_text("{")
        assert tool.main(argv) == 1
        assert "would skip fb_cut.json" in capsys.readouterr().err


class TestPlanDiff:
    def profile_doc(self, wall, with_sort=True):
        operators = [
            {
                "id": 1, "name": "SCAN", "describe": "t",
                "wall_time_s": wall, "rows_out": 1000,
                "spill_bytes_written": 0, "spill_bytes_read": 0,
                "bytes_materialized": 4096,
            }
        ]
        rewrites = []
        if with_sort:
            operators.append(
                {
                    "id": 3, "name": "SORT", "describe": "k",
                    "wall_time_s": 0.2, "rows_out": 1000,
                    "spill_bytes_written": 0, "spill_bytes_read": 0,
                    "bytes_materialized": 8192,
                }
            )
        else:
            rewrites.append(
                {
                    "text": "elide_redundant_sorts x1",
                    "pass": "elide_redundant_sorts",
                    "detail": "x1",
                    "nodes": ["#3 SORT [k]"],
                }
            )
        return {
            "query": "q", "serial_time_s": wall + (0.2 if with_sort else 0.0),
            "rewrites": rewrites,
            "dags": [{"index": 0, "operators": operators}],
        }

    def test_profile_diff_attributes_removed_operator(self):
        plan_diff = _load_tool("plan_diff")
        report = plan_diff.diff_profiles(
            self.profile_doc(0.1, with_sort=True),
            self.profile_doc(0.15, with_sort=False),
        )
        assert report["kind"] == "profile"
        removed = report["operators_removed"]
        assert len(removed) == 1
        assert removed[0]["attributed_to"] == "elide_redundant_sorts x1"
        (added,) = report["rewrites_added"]
        assert added["pass"] == "elide_redundant_sorts"
        changed = report["operators_changed"]
        assert changed and changed[0]["wall_delta_s"] == pytest.approx(0.05)

    def test_profile_diff_matches_operators_past_a_removed_one(self):
        plan_diff = _load_tool("plan_diff")

        def doc(names, rewrites=()):
            operators = [
                {"id": i, "name": name, "describe": describe, "wall_time_s": 0.1}
                for i, (name, describe) in enumerate(names)
            ]
            return {"rewrites": list(rewrites), "dags": [{"index": 0, "operators": operators}]}

        before = doc([("SOURCE", ""), ("SORT", "k"), ("SORT", "k"), ("MERGE", "k")])
        after = doc(
            [("SOURCE", ""), ("SORT", "k"), ("MERGE", "k")],
            [
                {"text": "buffer-reuse: x", "pass": "buffer-reuse", "nodes": ["SORT"]},
                {"text": "elide_redundant_sorts x1", "pass": "elide_redundant_sorts",
                 "nodes": ["#2 SORT [k]"]},
            ],
        )
        report = plan_diff.diff_profiles(before, after)
        # The MERGE moved from #3 to #2: matched, not removed and re-added.
        assert report["operators_added"] == []
        (removed,) = report["operators_removed"]
        assert removed["operator"] == "region 0 #2 SORT [k]"
        # The event naming the exact node wins over one naming only "SORT".
        assert removed["attributed_to"] == "elide_redundant_sorts x1"

    def test_engine_profiles_attribute_every_removed_operator(self):
        plan_diff = _load_tool("plan_diff")
        db = Database(num_threads=2)
        db.create_table("r", {"k": "int64", "g": "int64", "v": "float64"})
        n = 2000
        db.insert("r", {"k": np.arange(n) % 7, "g": np.arange(n) % 3, "v": np.ones(n)})
        sql = (
            "SELECT k, s, sum(s) OVER (PARTITION BY k ORDER BY s) "
            "FROM (SELECT k, g, sum(v) AS s FROM r GROUP BY k, g) AS d ORDER BY k"
        )
        profiles = [
            profile_dict(db.sql(sql, config=EngineConfig(collect_trace=True, **ablate)))
            for ablate in (dict(elide_sorts=False, remove_redundant_combines=False), {})
        ]
        report = plan_diff.diff_profiles(*profiles)
        attributed = {e["operator"].split(" ", 3)[3]: e["attributed_to"]
                      for e in report["operators_removed"]}
        assert attributed == {
            "SORT [k]": "elide_redundant_sorts x1",
            "COMBINE [join on (k,g)]": "remove_redundant_combines x1",
        }
        assert report["operators_added"] == []

    def test_cli_rejects_a_document_that_is_not_a_profile(self, tmp_path):
        plan_diff = _load_tool("plan_diff")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(self.profile_doc(0.1)))
        b.write_text(json.dumps({"families": {}}))
        assert plan_diff.main([str(a), str(b)]) == 2

    def test_cli_writes_json_report(self, tmp_path, capsys):
        plan_diff = _load_tool("plan_diff")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "report.json"
        a.write_text(json.dumps(self.profile_doc(0.1)))
        b.write_text(json.dumps(self.profile_doc(0.3)))
        assert plan_diff.main([str(a), str(b), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["total_wall_delta_s"] == pytest.approx(0.2)
