"""Tests for the cross-query materialization manager (``repro.reuse``).

The differential guarantee under test: with reuse enabled, every query —
including after DML-driven view maintenance — returns canonically
identical rows to a reuse-off database, under ``verify_plans="strict"``
so every substituted DAG also passes the static plan verifier with zero
diagnostics.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro import Database, EngineConfig
from repro.bench.corpora import (
    STAR_DS_CORPUS,
    canonical_rows,
    reference_answers,
    verify_query,
)
from repro.lolepop import CachedBufferOp, ViewSourceOp
from repro.lolepop.verify import check_dag
from repro.reuse import ReuseConfig
from repro.server.admission import AdmissionController

STRICT = EngineConfig(verify_plans="strict")


def _populate(db: Database, rows: int = 400, seed: int = 11) -> None:
    rng = np.random.default_rng(seed)
    db.create_table(
        "fact", {"k": "int64", "g": "int64", "h": "int64", "v": "float64"}
    )
    db.insert(
        "fact",
        {
            "k": rng.integers(0, 1000, rows),
            "g": rng.integers(0, 6, rows),
            "h": rng.integers(0, 4, rows),
            "v": rng.random(rows).round(4),
        },
    )


def make_pair(reuse=True, rows: int = 400, plan_cache_size: int = 0):
    """(reuse-enabled db, identically-populated reuse-off db). The plan
    cache is off by default so textually identical repeats re-translate
    and actually consult the manager."""
    on = Database(plan_cache_size=plan_cache_size, reuse=reuse)
    off = Database()
    for db in (on, off):
        _populate(db, rows)
    return on, off


def assert_differential(on: Database, off: Database, sql: str) -> None:
    got = canonical_rows(on.sql(sql, config=STRICT))
    want = canonical_rows(off.sql(sql, config=STRICT))
    assert got == want, f"reuse-on diverges from reuse-off on: {sql}"


def _nodes(result):
    return [node for dag in result.dags for node in dag.topological_order()]


# ---------------------------------------------------------------------------
# Property-keyed buffer cache
# ---------------------------------------------------------------------------
class TestBufferCache:
    def test_ordered_buffer_reused_across_queries(self):
        on, off = make_pair()
        sql = "SELECT k, v FROM fact ORDER BY k"
        assert_differential(on, off, sql)
        before = on.reuse.stats()["hits"]
        result = on.sql(sql, config=STRICT)
        assert canonical_rows(result) == canonical_rows(off.sql(sql))
        assert on.reuse.stats()["hits"] > before
        substituted = [
            n for n in _nodes(result) if isinstance(n, CachedBufferOp)
        ]
        assert substituted, "second run did not substitute a cached buffer"

    def test_similar_queries_share_one_buffer(self):
        """LIMIT / extra sort keys are downstream of the cached site, so
        distinct-but-similar queries hit the same entries."""
        on, off = make_pair()
        on.sql("SELECT k, v FROM fact ORDER BY k", config=STRICT)
        for sql in (
            "SELECT k, v FROM fact ORDER BY k LIMIT 3",
            "SELECT k, v FROM fact ORDER BY k, v",
        ):
            before = on.reuse.stats()["hits"]
            assert_differential(on, off, sql)
            assert on.reuse.stats()["hits"] > before, sql

    def test_substituted_dag_has_zero_diagnostics(self):
        on, _ = make_pair()
        sql = "SELECT k, v FROM fact ORDER BY k"
        on.sql(sql, config=STRICT)
        result = on.sql(sql, config=STRICT)
        assert any(isinstance(n, CachedBufferOp) for n in _nodes(result))
        for dag in result.dags:
            diagnostics, _ = check_dag(dag)
            assert diagnostics == []

    def test_dml_invalidates_buffers(self):
        on, off = make_pair()
        sql = "SELECT k, v FROM fact ORDER BY k"
        on.sql(sql, config=STRICT)
        extra = {"k": [5, 7], "g": [1, 2], "h": [0, 1], "v": [0.5, 0.25]}
        on.insert("fact", extra)
        off.insert("fact", extra)
        assert on.reuse.stats()["buffers"] == 0  # eagerly dropped
        assert_differential(on, off, sql)

    def test_disabled_buffers_still_correct(self):
        on, off = make_pair(reuse=ReuseConfig(enable_buffers=False))
        sql = "SELECT k, v FROM fact ORDER BY k"
        on.sql(sql, config=STRICT)
        assert_differential(on, off, sql)
        assert on.reuse.stats()["buffers"] == 0


# ---------------------------------------------------------------------------
# Incrementally-maintained aggregate views + lattice reuse
# ---------------------------------------------------------------------------
def make_view_pair(**kwargs):
    kwargs.setdefault("view_min_uses", 1)
    return make_pair(reuse=ReuseConfig(**kwargs))


class TestAggregateViews:
    FINE = "SELECT g, h, sum(v) AS s, count(*) AS c FROM fact GROUP BY g, h"

    def test_view_built_and_served(self):
        on, off = make_view_pair()
        assert_differential(on, off, self.FINE)
        assert on.reuse.stats()["views"] == 1
        result = on.sql(self.FINE, config=STRICT)
        assert any(isinstance(n, ViewSourceOp) for n in _nodes(result))
        assert canonical_rows(result) == canonical_rows(off.sql(self.FINE))

    def test_lattice_answers_coarser_groupings_from_finer_state(self):
        on, off = make_view_pair()
        on.sql(self.FINE, config=STRICT)
        for sql in (
            "SELECT g, sum(v) AS s FROM fact GROUP BY g",
            "SELECT g, h, sum(v) AS s FROM fact GROUP BY ROLLUP (g, h)",
            "SELECT g, h, sum(v) AS s FROM fact GROUP BY CUBE (g, h)",
            "SELECT g, h, sum(v) AS s FROM fact "
            "GROUP BY GROUPING SETS ((g, h), (h), ())",
        ):
            assert_differential(on, off, sql)
            # Served from the finer (g, h) state: no second view appears.
            assert on.reuse.stats()["views"] == 1, sql

    def test_new_aggregate_builds_new_view(self):
        on, _ = make_view_pair()
        on.sql(self.FINE, config=STRICT)
        on.sql("SELECT g, min(v) AS m FROM fact GROUP BY g", config=STRICT)
        assert on.reuse.stats()["views"] == 2

    def test_insert_delta_maintains_view(self):
        on, off = make_view_pair()
        on.sql(self.FINE, config=STRICT)
        extra = {
            "k": [1, 2, 3],
            "g": [0, 5, 9],  # 9 is a brand-new group
            "h": [0, 1, 2],
            "v": [1.5, 2.5, 3.5],
        }
        on.insert("fact", extra)
        off.insert("fact", extra)
        stats = on.reuse.stats()
        assert stats["views"] == 1  # maintained, not dropped
        assert stats["maintenance_events"] >= 1
        assert_differential(on, off, self.FINE)
        # The naive row engine is an independent oracle on the same db.
        assert canonical_rows(on.sql(self.FINE, config=STRICT)) == (
            canonical_rows(on.sql(self.FINE, engine="naive"))
        )

    def test_maintenance_respects_filter_fragment(self):
        on, off = make_view_pair()
        sql = "SELECT g, sum(v) AS s FROM fact WHERE h = 1 GROUP BY g"
        on.sql(sql, config=STRICT)
        extra = {"k": [1, 2], "g": [0, 0], "h": [1, 3], "v": [10.0, 20.0]}
        on.insert("fact", extra)  # only the h=1 row may reach the view
        off.insert("fact", extra)
        assert_differential(on, off, sql)

    def test_truncate_invalidates_view(self):
        on, off = make_view_pair()
        on.sql(self.FINE, config=STRICT)
        on.table("fact").truncate()
        off.table("fact").truncate()
        assert on.reuse.stats()["views"] == 0
        assert_differential(on, off, self.FINE)

    def test_min_uses_threshold(self):
        on, _ = make_pair(reuse=ReuseConfig(view_min_uses=2))
        sql = "SELECT g, sum(v) AS s FROM fact GROUP BY g"
        on.sql(sql, config=STRICT)
        assert on.reuse.stats()["views"] == 0  # first demand only counted
        on.sql(sql, config=STRICT)
        assert on.reuse.stats()["views"] == 1

    def test_nondecomposable_aggregates_bypass_views(self):
        on, off = make_view_pair()
        sql = "SELECT g, median(v) AS m FROM fact GROUP BY g"
        on.sql(sql, config=STRICT)
        on.sql(sql, config=STRICT)
        assert on.reuse.stats()["views"] == 0
        assert_differential(on, off, sql)


# ---------------------------------------------------------------------------
# Eviction and budget accounting
# ---------------------------------------------------------------------------
class TestEviction:
    def test_budget_bounds_resident_bytes(self):
        budget = 4096
        on = Database(
            plan_cache_size=0,
            reuse=ReuseConfig(budget_bytes=budget, view_min_uses=1),
        )
        _populate(on, rows=600)
        _populate_second_table(on)
        queries = [
            "SELECT k, v FROM fact ORDER BY k",
            "SELECT k, v FROM fact ORDER BY v",
            "SELECT g, h, sum(v) AS s FROM fact GROUP BY g, h",
            "SELECT a, b FROM dim ORDER BY a",
            "SELECT a, sum(b) AS s FROM dim GROUP BY a",
        ]
        for sql in queries:
            on.sql(sql, config=STRICT)
            assert on.reuse.stats()["resident_bytes"] <= budget
        assert on.reuse.stats()["evictions"] > 0

    def test_clear_resets_everything(self):
        on, _ = make_view_pair()
        on.sql("SELECT k, v FROM fact ORDER BY k", config=STRICT)
        on.sql("SELECT g, sum(v) AS s FROM fact GROUP BY g", config=STRICT)
        assert on.reuse.clear() > 0
        stats = on.reuse.stats()
        assert stats["buffers"] == 0 and stats["views"] == 0
        assert stats["resident_bytes"] == 0


def _populate_second_table(db: Database, rows: int = 500) -> None:
    rng = np.random.default_rng(3)
    db.create_table("dim", {"a": "int64", "b": "float64"})
    db.insert(
        "dim",
        {"a": rng.integers(0, 50, rows), "b": rng.random(rows).round(4)},
    )


# ---------------------------------------------------------------------------
# Per-table version invalidation of the plan and result caches
# ---------------------------------------------------------------------------
class TestPerTableInvalidation:
    def _db(self):
        db = Database()
        _populate(db, rows=40)
        _populate_second_table(db, rows=40)
        return db

    def test_plan_cache_survives_unrelated_dml(self, monkeypatch):
        import repro.api

        db = self._db()
        calls = {"parse": 0}
        real_parse = repro.api.parse_sql

        def counting_parse(*args):
            calls["parse"] += 1
            return real_parse(*args)

        monkeypatch.setattr(repro.api, "parse_sql", counting_parse)
        sql = "SELECT sum(v) FROM fact"
        db.sql(sql)
        db.insert("dim", {"a": [1], "b": [2.0]})
        db.sql(sql)
        assert calls["parse"] == 1  # dim DML left the fact entry current
        db.insert("fact", {"k": [1], "g": [0], "h": [0], "v": [1.0]})
        db.sql(sql)
        assert calls["parse"] == 1  # one row of 40: fact is not stale
        db.insert("fact", {"k": [1] * 4, "g": [0] * 4, "h": [0] * 4, "v": [1.0] * 4})
        db.sql(sql)
        assert calls["parse"] == 2  # five rows of 40 are: fact DML invalidated it

    def test_reuse_plan_cache_entries_need_equal_versions(self, monkeypatch):
        """Under reuse a template names the snapshot it captured: any
        write to a table it reads invalidates the entry."""
        import repro.api

        db = Database(reuse=True)
        _populate(db, rows=40)
        calls = {"parse": 0}
        real_parse = repro.api.parse_sql

        def counting_parse(*args):
            calls["parse"] += 1
            return real_parse(*args)

        monkeypatch.setattr(repro.api, "parse_sql", counting_parse)
        sql = "SELECT sum(v) FROM fact"
        db.sql(sql)
        db.sql(sql)
        assert calls["parse"] == 1
        db.insert("fact", {"k": [1], "g": [0], "h": [0], "v": [1.0]})
        assert db.sql(sql).rows() == db.sql(sql, engine="naive").rows()
        assert calls["parse"] == 2

    def test_plan_cache_ddl_still_invalidates(self):
        db = self._db()
        sql = "SELECT sum(v) FROM fact"
        db.sql(sql)
        misses = db.plan_cache.misses
        db.create_table("other", {"z": "int64"})
        db.sql(sql)
        assert db.plan_cache.misses == misses + 1

    def test_result_cache_survives_unrelated_dml(self):
        from repro.server import QueryService

        db = self._db()
        with QueryService(db) as service:
            sql = "SELECT sum(v) FROM fact"
            service.submit(sql).result(10)
            db.insert("dim", {"a": [1], "b": [2.0]})
            ticket = service.submit(sql)
            ticket.result(10)
            assert ticket.from_result_cache
            db.insert("fact", {"k": [1], "g": [0], "h": [0], "v": [9.0]})
            ticket = service.submit(sql)
            fresh = ticket.result(10)
            assert not ticket.from_result_cache
            assert fresh.rows() != []


# ---------------------------------------------------------------------------
# Serving integration: admission budget, telemetry, shell
# ---------------------------------------------------------------------------
class _FakeTicket:
    def __init__(self, est):
        self.query_id = "q1"
        self.est_bytes = est


class TestServingIntegration:
    def test_admission_counts_extra_reserved(self):
        held = {"bytes": 0.0}
        controller = AdmissionController(
            4, 8, memory_budget_bytes=100.0,
            extra_reserved=lambda: held["bytes"],
        )
        assert controller.admit(_FakeTicket(60.0)) is True
        controller.release(_FakeTicket(60.0))
        held["bytes"] = 90.0
        assert controller.admit(_FakeTicket(60.0)) is False  # queued
        held["bytes"] = 0.0

    def test_admission_broken_gauge_is_ignored(self):
        def boom():
            raise RuntimeError("gauge broke")

        controller = AdmissionController(
            2, 4, memory_budget_bytes=100.0, extra_reserved=boom
        )
        assert controller.admit(_FakeTicket(50.0)) is True

    def test_service_wires_manager_into_admission_and_stats(self):
        from repro.server import QueryService, ServiceConfig

        db = Database(plan_cache_size=0, reuse=True)
        _populate(db, rows=60)
        with QueryService(
            db, ServiceConfig(memory_budget_bytes=1 << 30)
        ) as service:
            assert service.admission.extra_reserved is not None
            service.submit(
                "SELECT k, v FROM fact ORDER BY k", use_result_cache=False
            ).result(10)
            service.submit(
                "SELECT k, v FROM fact ORDER BY k LIMIT 5",
                use_result_cache=False,
            ).result(10)
            stats = service.stats()
            assert "reuse" in stats
            assert stats["reuse"]["hits"] >= 1
            assert service.admission.extra_reserved() == (
                db.reuse.resident_bytes
            )

    def test_telemetry_carries_reuse_events_and_summary(self):
        from repro.observability.telemetry import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig(enabled=True))
        db = Database(plan_cache_size=0, telemetry=telemetry, reuse=True)
        _populate(db, rows=60)
        sql = "SELECT k, v FROM fact ORDER BY k"
        db.sql(sql, config=STRICT)
        db.sql(sql, config=STRICT)
        summary = telemetry.summary()
        assert summary["reuse"]["hits"] >= 1
        kinds = {e["kind"] for e in telemetry.recorder.snapshot()}
        assert "reuse.hit" in kinds and "reuse.miss" in kinds

    def test_report_renders_reuse_line(self):
        from repro.observability.telemetry import (
            Telemetry,
            TelemetryConfig,
            render_report,
        )

        telemetry = Telemetry(TelemetryConfig(enabled=True))
        db = Database(plan_cache_size=0, telemetry=telemetry, reuse=True)
        _populate(db, rows=40)
        db.sql("SELECT k FROM fact ORDER BY k")
        text = render_report(telemetry.report())
        assert "reuse:" in text

    def test_report_tolerates_managerless_dumps(self):
        from repro.observability.telemetry import (
            Telemetry,
            TelemetryConfig,
            render_report,
        )

        telemetry = Telemetry(TelemetryConfig(enabled=True))
        report = telemetry.report()
        assert report["reuse"] is None
        assert "reuse:" not in render_report(report)

    def test_shell_reuse_commands(self):
        from repro.shell import Shell

        db = Database(plan_cache_size=0, reuse=True)
        _populate(db, rows=60)
        out = io.StringIO()
        shell = Shell(database=db, out=out)
        shell.execute_line("SELECT k, v FROM fact ORDER BY k")
        shell.execute_line(".reuse")
        shell.execute_line(".reuse list")
        shell.execute_line(".reuse clear")
        shell.execute_line(".reuse bogus")
        text = out.getvalue()
        assert "hits" in text and "resident" in text
        assert "[buffer]" in text
        assert "entries dropped" in text
        assert "usage: .reuse" in text

    def test_shell_reuse_disabled_message(self):
        out = io.StringIO()
        from repro.shell import Shell

        shell = Shell(database=Database(), out=out)
        shell.execute_line(".reuse")
        assert "reuse disabled" in out.getvalue()


# ---------------------------------------------------------------------------
# Corpus differential: star_ds lattice family, reuse on, serial + parallel
# ---------------------------------------------------------------------------
SCALE = 0.002


@pytest.fixture(scope="module")
def star_reuse_db():
    return STAR_DS_CORPUS.build_database(
        scale_factor=SCALE, reuse=ReuseConfig(view_min_uses=1)
    )


@pytest.fixture(scope="module")
def star_reuse_refs(star_reuse_db):
    return reference_answers(star_reuse_db, STAR_DS_CORPUS)


@pytest.mark.parametrize("name", sorted(STAR_DS_CORPUS.queries))
def test_star_ds_reuse_on_matches_naive(star_reuse_db, star_reuse_refs, name):
    """Warm manager (queries before this one may have seeded it), strict
    verification, serial + parallel — reuse must be invisible in the
    rows."""
    ok, problems = verify_query(
        star_reuse_db, STAR_DS_CORPUS, name, star_reuse_refs[name],
        threads=4, verify_plans="strict",
    )
    assert ok, problems


def test_star_ds_reuse_after_dml_matches_naive(star_reuse_db):
    """DML after the sweep above: maintained/invalidated state must still
    be invisible — fresh naive references are the oracle."""
    sales = star_reuse_db.table("sales")
    batch = sales.to_batch()
    delta = {
        f.name: np.asarray(batch.column(f.name).values[:25])
        for f in sales.schema
    }
    star_reuse_db.insert("sales", delta)
    for name in (
        "ds1_rollup_region_state",
        "ds3_grouping_sets_lattice",
        "ds10_three_key_lattice",
    ):
        reference = canonical_rows(
            star_reuse_db.sql(STAR_DS_CORPUS.queries[name], engine="naive")
        )
        ok, problems = verify_query(
            star_reuse_db, STAR_DS_CORPUS, name, reference,
            threads=4, verify_plans="strict",
        )
        assert ok, problems
