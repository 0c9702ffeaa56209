"""Tests for the query service layer: sessions, admission control,
cancellation, result caching, and concurrent differential correctness."""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import AdmissionError, Database, QueryCancelled, QueryService, ServiceConfig
from repro.errors import ReproError
from repro.observability.metrics import MetricsRegistry
from repro.server.admission import AdmissionController, estimate_memory_bytes

from tests.helpers import normalized_rows


def make_db(rows=3000, seed=1, plan_cache_size=256):
    db = Database(num_threads=2, plan_cache_size=plan_cache_size)
    db.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
    rng = np.random.default_rng(seed)
    db.insert(
        "t",
        {
            "g": rng.integers(0, 6, rows),
            "x": rng.random(rows).round(4),
            "o": rng.permutation(rows),
        },
    )
    return db


def service_for(db, **cfg):
    return QueryService(db, ServiceConfig(**cfg))


class _FakeTicket:
    def __init__(self, query_id, est_bytes=0.0):
        self.query_id = query_id
        self.est_bytes = est_bytes


# ---------------------------------------------------------------------------
# Admission controller (unit, deterministic)
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def test_admit_until_full_then_queue(self):
        ctl = AdmissionController(max_concurrent=2, max_queue=2)
        a, b, c = (_FakeTicket(f"q{i}") for i in range(3))
        assert ctl.admit(a) is True
        assert ctl.admit(b) is True
        assert ctl.admit(c) is False  # queued
        assert ctl.running == 2 and ctl.queue_depth == 1

    def test_queue_full_rejection(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=1)
        ctl.admit(_FakeTicket("q1"))
        ctl.admit(_FakeTicket("q2"))
        with pytest.raises(AdmissionError) as info:
            ctl.admit(_FakeTicket("q3"))
        assert info.value.reason == "queue_full"

    def test_over_budget_rejection(self):
        ctl = AdmissionController(1, 4, memory_budget_bytes=100)
        with pytest.raises(AdmissionError) as info:
            ctl.admit(_FakeTicket("big", est_bytes=101))
        assert info.value.reason == "over_budget"

    def test_memory_budget_queues_within_budget(self):
        ctl = AdmissionController(max_concurrent=4, max_queue=4,
                                  memory_budget_bytes=100)
        a = _FakeTicket("a", 60)
        b = _FakeTicket("b", 60)  # fits alone, not alongside a
        assert ctl.admit(a) is True
        assert ctl.admit(b) is False
        assert ctl.reserved_bytes == 60
        ready = ctl.release(a)
        assert ready == [b]
        assert ctl.reserved_bytes == 60 and ctl.running == 1

    def test_release_dispatches_fifo(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=8)
        first = _FakeTicket("first")
        ctl.admit(first)
        queued = [_FakeTicket(f"w{i}") for i in range(3)]
        for ticket in queued:
            assert ctl.admit(ticket) is False
        # Strict FIFO: releasing the runner starts exactly the head.
        ready = ctl.release(first)
        assert [t.query_id for t in ready] == ["w0"]
        ready = ctl.release(ready[0])
        assert [t.query_id for t in ready] == ["w1"]

    def test_fifo_head_blocks_later_small_queries(self):
        # Strict FIFO: a big head must not be overtaken by a small one.
        ctl = AdmissionController(4, 8, memory_budget_bytes=100)
        runner = _FakeTicket("run", 80)
        ctl.admit(runner)
        big = _FakeTicket("big", 90)
        small = _FakeTicket("small", 5)
        assert ctl.admit(big) is False
        assert ctl.admit(small) is False
        ready = ctl.release(runner)
        assert [t.query_id for t in ready] == ["big", "small"]

    def test_remove_queued(self):
        ctl = AdmissionController(1, 4)
        ctl.admit(_FakeTicket("run"))
        queued = _FakeTicket("q")
        ctl.admit(queued)
        assert ctl.remove(queued) is True
        assert ctl.remove(queued) is False
        assert ctl.queue_depth == 0

    def test_estimate_memory_bytes_positive_and_monotone(self):
        db = make_db(rows=2000)
        from repro.logical.cardinality import CardinalityEstimator
        from repro.stats import StatisticsCache

        estimator = CardinalityEstimator(StatisticsCache(db.catalog))
        small = estimate_memory_bytes(
            db.plan("SELECT sum(x) FROM t WHERE g = 0"), estimator
        )
        big = estimate_memory_bytes(
            db.plan("SELECT t1.x FROM t t1 JOIN t t2 ON t1.g = t2.g"),
            estimator,
        )
        assert 0 < small < big


# ---------------------------------------------------------------------------
# Service-level admission + lifecycle
# ---------------------------------------------------------------------------
class TestQueryService:
    def test_single_query_matches_direct_execution(self):
        db = make_db()
        sql = "SELECT g, median(x), sum(x) FROM t GROUP BY g"
        expected = db.sql(sql).rows()
        with service_for(db) as service:
            got = service.session().execute(sql).rows()
        assert got == expected

    def test_concurrency_capped_and_all_complete(self):
        db = make_db()
        sql = "SELECT g, median(x) FROM t GROUP BY g"
        expected = db.sql(sql).rows()
        with service_for(db, max_concurrent=1, max_queue=64) as service:
            session = service.session()
            tickets = [
                session.submit(sql, use_result_cache=False) for _ in range(10)
            ]
            results = [t.result(timeout=60) for t in tickets]
        assert all(r.rows() == expected for r in results)
        stats = service.stats()["service"]
        assert stats["submitted"] == 10
        assert stats["admitted"] == 10
        assert stats["completed"] == 10
        # With one slot and instant submissions, later queries had to queue.
        assert stats.get("queued", 0) >= 1
        assert service.admission.running == 0
        assert service.admission.queue_depth == 0

    def test_over_budget_rejection_via_service(self):
        db = make_db(rows=5000)
        # A scan of t is estimated at ~120 kB; a full projection doubles
        # that (scan + output), so a 150 kB budget rejects the wide query
        # while the count(*) (scan + one row) still fits.
        with service_for(db, memory_budget_bytes=150_000) as service:
            with pytest.raises(AdmissionError) as info:
                service.submit("SELECT g, x, o FROM t")
            assert info.value.reason == "over_budget"
            assert service.stats()["service"]["rejected"] == 1
            # The service still accepts queries that fit.
            tiny = service.submit("SELECT count(*) FROM t WHERE g = 99")
            assert tiny.result(timeout=30).rows() == [(0,)]

    def test_shutdown_rejects_new_queries(self):
        db = make_db(rows=100)
        service = service_for(db)
        service.shutdown()
        with pytest.raises(AdmissionError) as info:
            service.submit("SELECT count(*) FROM t")
        assert info.value.reason == "shutdown"

    def test_parse_error_surfaces_on_submit(self):
        db = make_db(rows=50)
        with service_for(db) as service:
            with pytest.raises(ReproError):
                service.submit("SELEKT nonsense")

    def test_services_count_apart(self):
        """Each service owns its registry: two in one process, both built
        without one, count only their own statements."""
        db = make_db(rows=100)
        with QueryService(db) as first, QueryService(db) as second:
            first.session().execute("SELECT count(*) FROM t")
            for _ in range(2):
                second.session().execute("SELECT count(*) FROM t", use_result_cache=False)
            assert first.stats()["service"]["completed"] == 1
            assert second.stats()["service"]["completed"] == 2
            assert first.metrics is not second.metrics

    def test_no_thread_beyond_the_driver_and_worker_pools(self):
        """A service runs its statements on the waiting thread, its driver
        pool and the shared worker pools, and starts no thread of its own
        besides; shutting it down joins the driver pool."""
        db = make_db(rows=100)
        before = set(threading.enumerate())

        def started():
            return sorted(t.name for t in threading.enumerate() if t not in before)

        service = QueryService(db)
        service.session().execute("SELECT g, sum(x) FROM t GROUP BY g")
        running = started()
        service.shutdown()
        assert all(n.startswith(("repro-service", "repro-worker")) for n in running), running
        assert all(n.startswith("repro-worker") for n in started()), started()


# ---------------------------------------------------------------------------
# Which thread runs a ticket
# ---------------------------------------------------------------------------
def record_runs(monkeypatch):
    """Patch ``QueryService._run`` to log the ident and name of each thread
    that runs a ticket."""
    runs = []
    original = QueryService._run

    def run(self, ticket):
        current = threading.current_thread()
        runs.append((ticket.query_id, current.ident, current.name))
        original(self, ticket)

    monkeypatch.setattr(QueryService, "_run", run)
    return runs


def wait_for_state(ticket, state, seconds=30):
    """Poll ``ticket.state``, which, unlike ``done`` or ``result``, never
    starts a ready ticket."""
    deadline = time.monotonic() + seconds
    while ticket.state != state and time.monotonic() < deadline:
        time.sleep(0.001)
    return ticket.state


class TestDispatch:
    SQL = "SELECT g, sum(x) FROM t GROUP BY g"

    def test_submit_then_wait_runs_on_the_callers_thread(self, monkeypatch):
        runs = record_runs(monkeypatch)
        db = make_db(rows=200)
        expected = db.sql(self.SQL).rows()
        before = set(threading.enumerate())
        with service_for(db) as service:
            session = service.session()
            for _ in range(5):
                assert session.execute(self.SQL, use_result_cache=False).rows() == expected
            ticket = session.submit(self.SQL, timeout=60, use_result_cache=False)
            assert ticket.result(timeout=60).rows() == expected  # outlasts its deadline
            started = [t.name for t in threading.enumerate() if t not in before]
        assert [ident for _, ident, _ in runs] == [threading.get_ident()] * 6
        assert not any(name.startswith("repro-service") for name in started), started

    def test_unwaited_ticket_starts_at_the_next_submit(self, monkeypatch):
        runs = record_runs(monkeypatch)
        db = make_db(rows=200)
        with service_for(db) as service:
            first = service.submit(self.SQL, use_result_cache=False)
            assert wait_for_state(first, "done", seconds=0.05) == "queued"
            second = service.submit("SELECT count(*) FROM t", use_result_cache=False)
            assert wait_for_state(first, "done") == "done"
            assert second.result().rows() == [(200,)]
        assert runs[0][0] == first.query_id and runs[0][2].startswith("repro-service")

    def test_unwaited_ticket_starts_when_polled(self):
        db = make_db(rows=200)
        with service_for(db) as service:
            ticket = service.submit(self.SQL, use_result_cache=False)
            deadline = time.monotonic() + 30
            while not ticket.done and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ticket.state == "done"

    def test_unwaited_ticket_finishes_before_shutdown_returns(self):
        db = make_db(rows=200)
        service = service_for(db)
        ticket = service.submit(self.SQL, use_result_cache=False)
        service.shutdown(wait=True)
        assert ticket.state == "done"
        assert ticket.result().rows() == db.sql(self.SQL).rows()
        assert service.admission.running == 0

    def test_shorter_wait_hands_the_ticket_to_the_pool(self, monkeypatch):
        runs = record_runs(monkeypatch)
        db = make_db(rows=200)
        gate = threading.Event()
        execute = db.execute_prepared

        def gated(*args, **kwargs):
            gate.wait(30)
            return execute(*args, **kwargs)

        monkeypatch.setattr(db, "execute_prepared", gated)
        with service_for(db) as service:
            ticket = service.submit(self.SQL, timeout=60, use_result_cache=False)
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
            assert time.monotonic() - started < 5
            gate.set()
            assert ticket.result().rows() == db.sql(self.SQL).rows()
        assert len(runs) == 1 and runs[0][2].startswith("repro-service")

    def test_two_waiters_run_the_ticket_once(self, monkeypatch):
        """Two waiters race a poller for each ticket, under a short switch
        interval: each ticket runs once, on one of its waiters or the pool,
        and every slot comes back."""
        runs = record_runs(monkeypatch)
        db = make_db(rows=200)
        expected = db.sql(self.SQL).rows()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with service_for(db, max_concurrent=2) as service:
                for _ in range(20):
                    ticket = service.submit(self.SQL, use_result_cache=False)
                    barrier = threading.Barrier(3)
                    results = []

                    def wait(ticket=ticket, barrier=barrier, results=results):
                        barrier.wait(30)
                        results.append(ticket.result())

                    def poll(ticket=ticket, barrier=barrier):
                        barrier.wait(30)
                        ticket.done

                    threads = [threading.Thread(target=f) for f in (wait, wait, poll)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                    assert not any(t.is_alive() for t in threads)
                    assert len(results) == 2 and results[0] is results[1]
                    assert results[0].rows() == expected
                assert service.admission.running == 0
                assert service.stats()["service"]["completed"] == 20
        finally:
            sys.setswitchinterval(interval)
        ids = [query_id for query_id, _, _ in runs]
        assert len(ids) == 20 == len(set(ids))

    def test_cancel_a_ready_ticket(self):
        db = make_db(rows=200)
        with service_for(db, max_concurrent=1) as service:
            ticket = service.submit(self.SQL, use_result_cache=False)
            assert service.cancel(ticket.query_id) is True
            assert ticket.state == "cancelled"
            with pytest.raises(QueryCancelled):
                ticket.result()
            assert service.admission.running == 0
            # The freed slot takes the next statement.
            follow = service.submit("SELECT count(*) FROM t", use_result_cache=False)
            assert follow.result().rows() == [(200,)]
            assert service.stats()["service"]["cancelled"] == 1


# ---------------------------------------------------------------------------
# Cancellation and timeouts
# ---------------------------------------------------------------------------
SLOW_SQL = (
    "SELECT g, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS c, "
    "median(x) OVER (PARTITION BY g) AS m FROM t"
)


class TestCancellation:
    def test_timeout_cancels_at_region_barrier(self):
        db = make_db()
        with service_for(db) as service:
            ticket = service.submit(SLOW_SQL, timeout=1e-6)
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=30)
            assert ticket.state == "cancelled"
            stats = service.stats()["service"]
            assert stats["cancelled"] == 1
            assert stats["timeouts"] == 1
            # The service stays healthy: a follow-up query runs fine.
            follow = service.submit("SELECT count(*) FROM t")
            assert follow.result(timeout=30).rows() == [(3000,)]

    def test_timeout_frees_spill_files(self, tmp_path, monkeypatch):
        from repro.storage.spill import SpillManager

        # The deadline passes while the first partition file is being
        # written, whatever the speed of the box: the query is cancelled at
        # the next region barrier with spill files on disk.
        stalled = []

        def stall_first_write(operation, path):
            if operation == "write" and not stalled:
                stalled.append(path)
                time.sleep(0.05)

        db = make_db(rows=20000)
        spill_config = db.config.clone(
            memory_budget_bytes=2048, spill_directory=str(tmp_path)
        )
        # Sanity: this workload really spills when run to completion.
        traced = db.sql(
            "SELECT g, median(x) FROM t GROUP BY g",
            config=spill_config.clone(collect_trace=True),
        )
        assert "spill" in [r.name for r in traced.trace.records]
        monkeypatch.setattr(
            SpillManager, "io_hook", staticmethod(stall_first_write)
        )
        with service_for(db) as service:
            ticket = service.submit(
                SLOW_SQL, config=spill_config, timeout=0.02
            )
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=60)
        assert stalled
        # Cancellation ran the engine's cleanup path: nothing left on disk.
        leftovers = [
            os.path.join(root, name)
            for root, _, names in os.walk(tmp_path)
            for name in names
        ]
        assert leftovers == []

    def test_cancel_queued_query(self):
        db = make_db(rows=30000)
        with service_for(db, max_concurrent=1) as service:
            running = service.submit(SLOW_SQL, use_result_cache=False)
            queued = service.submit(
                "SELECT count(*) FROM t", use_result_cache=False
            )
            assert service.cancel(queued.query_id) is True
            with pytest.raises(QueryCancelled):
                queued.result(timeout=30)
            assert queued.state == "cancelled"
            # The running query is unaffected.
            assert len(running.result(timeout=120).rows()) == 30000

    def test_cancel_running_query(self):
        db = make_db(rows=60000)
        with service_for(db) as service:
            ticket = service.submit(SLOW_SQL, use_result_cache=False)
            errors = []

            def wait():  # runs the ticket on this thread
                try:
                    ticket.result()
                except QueryCancelled as error:
                    errors.append(error)

            waiter = threading.Thread(target=wait)
            waiter.start()
            wait_for_state(ticket, "running")
            assert service.cancel(ticket.query_id) is True
            waiter.join(60)
            assert not waiter.is_alive()
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=60)
            assert ticket.state == "cancelled"
            assert len(errors) == 1

    def test_cancel_unknown_id(self):
        db = make_db(rows=10)
        with service_for(db) as service:
            assert service.cancel("q999") is False


# ---------------------------------------------------------------------------
# Result cache and invalidation
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_hit_returns_same_result_object(self):
        db = make_db(rows=500)
        with service_for(db) as service:
            session = service.session()
            first = session.execute("SELECT g, sum(x) FROM t GROUP BY g")
            second = session.execute("SELECT g, sum(x) FROM t GROUP BY g")
            assert second is first  # served from the result cache
            assert service.stats()["service"]["result_cache_hits"] == 1

    def test_dml_invalidates_result_cache(self):
        db = make_db(rows=100)
        with service_for(db) as service:
            session = service.session()
            sql = "SELECT count(*) FROM t"
            assert session.execute(sql).rows() == [(100,)]
            db.insert("t", {"g": [1], "x": [0.5], "o": [100]})
            assert session.execute(sql).rows() == [(101,)]

    def test_ddl_invalidates_result_cache(self):
        db = make_db(rows=50)
        with service_for(db) as service:
            session = service.session()
            sql = "SELECT count(*) FROM t"
            session.execute(sql)
            db.create_table("other", {"a": "int64"})  # bumps the DDL version
            session.execute(sql)
            assert service.stats()["service"].get("result_cache_hits", 0) == 0

    def test_opt_out_bypasses_cache(self):
        db = make_db(rows=100)
        with service_for(db) as service:
            session = service.session()
            sql = "SELECT g, sum(x) FROM t GROUP BY g"
            first = session.execute(sql, use_result_cache=False)
            second = session.execute(sql, use_result_cache=False)
            assert second is not first
            assert service.stats()["service"].get("result_cache_hits", 0) == 0

    def test_engine_scoped_keys(self):
        db = make_db(rows=100)
        with service_for(db) as service:
            session = service.session()
            sql = "SELECT g, sum(x) FROM t GROUP BY g"
            a = session.execute(sql, engine="lolepop")
            b = session.execute(sql, engine="monolithic")
            assert b is not a
            assert normalized_rows(a) == normalized_rows(b)


# ---------------------------------------------------------------------------
# Sessions and prepared statements
# ---------------------------------------------------------------------------
class TestSessions:
    def test_session_config_overrides(self):
        db = make_db(rows=100)
        with service_for(db) as service:
            session = service.session(num_threads=3)
            assert session.engine_config().num_threads == 3
            assert db.config.num_threads == 2  # base config untouched
            session.set_option(num_threads=5)
            assert session.engine_config().num_threads == 5

    def test_prepared_statements(self):
        db = make_db(rows=200)
        with service_for(db) as service:
            session = service.session()
            session.prepare("topg", "SELECT g, sum(x) FROM t GROUP BY g")
            assert session.prepared_names() == ["topg"]
            expected = db.sql("SELECT g, sum(x) FROM t GROUP BY g").rows()
            assert session.execute_prepared("topg").rows() == expected
            with pytest.raises(ReproError):
                session.execute_prepared("missing")

    def test_closed_session_rejects_submissions(self):
        db = make_db(rows=10)
        with service_for(db) as service:
            session = service.session()
            session.close()
            with pytest.raises(ReproError):
                session.execute("SELECT count(*) FROM t")

    def test_default_timeout_applies(self):
        db = make_db(rows=30000)
        with service_for(db) as service:
            session = service.session(default_timeout=1e-6)
            with pytest.raises(QueryCancelled):
                session.execute(SLOW_SQL)


# ---------------------------------------------------------------------------
# Catalog versioning (plan/result-cache invalidation signal): the DDL
# version and the per-table versions the caches validate on
# ---------------------------------------------------------------------------
class TestCatalogVersion:
    def test_ddl_and_dml_bump_version(self):
        db = Database()
        ddl0 = db.catalog.ddl_version
        table = db.create_table("a", {"x": "int64"})
        ddl1 = db.catalog.ddl_version
        assert ddl1 > ddl0
        v0 = table.version
        db.insert("a", {"x": [1, 2, 3]})
        v1 = table.version
        assert v1 > v0
        db.table("a").truncate()
        assert table.version > v1
        assert db.catalog.ddl_version == ddl1  # DML moves only the table
        db.drop_table("a")
        assert db.catalog.ddl_version > ddl1

    def test_reads_do_not_bump_version(self):
        db = make_db(rows=50)
        before = (db.catalog.ddl_version, db.table("t").version)
        db.sql("SELECT g, sum(x) FROM t GROUP BY g")
        assert (db.catalog.ddl_version, db.table("t").version) == before


# ---------------------------------------------------------------------------
# Differential: service results are byte-identical to direct execution
# ---------------------------------------------------------------------------
DIFF_QUERIES = [
    "SELECT g, median(x), sum(x) FROM t GROUP BY g",
    "SELECT g, percentile_disc(0.25) WITHIN GROUP (ORDER BY x) FROM t "
    "GROUP BY g",
    "SELECT count(*) FROM t WHERE g < 3",
    "SELECT g, x, o FROM t ORDER BY x, o LIMIT 7",
    "SELECT g, o, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t "
    "ORDER BY o LIMIT 11",
    "SELECT t1.g, count(*) FROM t t1 JOIN t t2 "
    "ON t1.o = t2.o AND t1.g < 2 GROUP BY t1.g",
] + [
    # Literal-varying templates all clients share: with the plan cache on,
    # most of these statements bind their literals into another's plan.
    template.format(*literals)
    for template, runs in [
        ("SELECT count(*), sum(x) FROM t WHERE g < {}", [(1,), (3,), (5,)]),
        ("SELECT g, x, o FROM t ORDER BY x, o LIMIT {}", [(3,), (7,)]),
        ("SELECT count(*) FROM t WHERE g IN ({}, {})", [(0, 1), (2, 4), (3, 5)]),
        (
            "SELECT o, coalesce(NULL, x + {}) AS z FROM t WHERE o < 12 ORDER BY o",
            [(1,), (2,), (2.5,)],
        ),
    ]
    for literals in runs
]


class TestConcurrentDifferential:
    @pytest.mark.parametrize("caches", ["on", "off"])
    def test_eight_clients_byte_identical(self, caches):
        db = make_db(rows=1500, plan_cache_size=256 if caches == "on" else 0)
        # References from the plain single-caller API, identical config.
        expected = {sql: db.sql(sql).rows() for sql in DIFF_QUERIES}
        mismatches = []
        errors = []
        use_result_cache = caches == "on"

        with service_for(
            db,
            max_concurrent=4,
            max_queue=256,
            result_cache_size=64 if use_result_cache else 0,
        ) as service:

            def client(index):
                session = service.session()
                rng = np.random.default_rng(index)
                try:
                    for _ in range(8):
                        sql = DIFF_QUERIES[
                            int(rng.integers(len(DIFF_QUERIES)))
                        ]
                        rows = session.execute(
                            sql,
                            timeout=120,
                            use_result_cache=use_result_cache,
                        ).rows()
                        if rows != expected[sql]:
                            mismatches.append(sql)
                except Exception as error:  # noqa: BLE001
                    errors.append(repr(error))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads), "client deadlock"
        assert errors == []
        assert mismatches == []

    @pytest.mark.parametrize("caches", ["on", "off"])
    def test_eight_clients_across_appends(self, caches):
        """Three rounds of eight clients. Before the second, two appends stay
        below the staleness threshold (cached plans stay current and read
        the new rows); before the third, one crosses it (they re-plan).
        Every answer equals a reference from a cache-free database holding
        that round's rows."""
        rows = 1500
        db = make_db(rows=rows, plan_cache_size=256 if caches == "on" else 0)
        table = db.table("t")
        data = {
            name: column.to_pylist()
            for name, column in zip(table.schema.names(), table.columns())
        }
        rng = np.random.default_rng(9)
        use_result_cache = caches == "on"
        mismatches, errors, misses = [], [], []
        with service_for(
            db,
            max_concurrent=4,
            max_queue=256,
            result_cache_size=64 if use_result_cache else 0,
        ) as service:
            # 40 + 50 rows written into 1500 stay within STALE_FRACTION; 100 more do not.
            for round_no, appends in enumerate([[], [40, 50], [100]]):
                for count in appends:
                    start = len(data["o"])
                    new = {
                        "g": [int(v) for v in rng.integers(0, 8, count)],
                        "x": [float(v) for v in rng.random(count).round(4)],
                        "o": list(range(start, start + count)),
                    }
                    db.insert("t", new)
                    for name, values in new.items():
                        data[name].extend(values)
                reference = Database(num_threads=2, plan_cache_size=0)
                reference.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
                reference.insert("t", data)
                expected = {sql: reference.sql(sql).rows() for sql in DIFF_QUERIES}

                def client(picks, expected=expected, round_no=round_no):
                    session = service.session()
                    try:
                        for sql in picks:
                            got = session.execute(
                                sql, timeout=120, use_result_cache=use_result_cache
                            ).rows()
                            if got != expected[sql]:
                                mismatches.append((round_no, sql))
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))

                if round_no == 0:
                    client(DIFF_QUERIES)  # every statement once: all plans are cached
                threads = [
                    threading.Thread(
                        target=client,
                        args=([DIFF_QUERIES[i] for i in rng.integers(len(DIFF_QUERIES), size=8)],),
                    )
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=180)
                assert not any(t.is_alive() for t in threads), "client deadlock"
                if caches == "on":
                    misses.append(db.plan_cache.misses)
        assert errors == []
        assert mismatches == []
        if caches == "on":
            # The second round re-planned nothing, the third did.
            assert misses[1] == misses[0] < misses[2]

    def test_tpch_under_concurrency(self, tpch_db):
        from repro.tpch import TPCH_QUERIES

        queries = [
            TPCH_QUERIES["q1"],
            TPCH_QUERIES["q6"],
            "SELECT o_orderpriority, count(*) FROM orders "
            "GROUP BY o_orderpriority",
            "SELECT l_returnflag, median(l_extendedprice) FROM lineitem "
            "GROUP BY l_returnflag",
        ]
        expected = {sql: tpch_db.sql(sql).rows() for sql in queries}
        failures = []
        with service_for(tpch_db, max_concurrent=4, max_queue=256) as service:

            def client(index):
                session = service.session()
                try:
                    for round_no in range(4):
                        sql = queries[(index + round_no) % len(queries)]
                        rows = session.execute(sql, timeout=120).rows()
                        if rows != expected[sql]:
                            failures.append(("mismatch", sql))
                except Exception as error:  # noqa: BLE001
                    failures.append(("error", repr(error)))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads), "client deadlock"
        assert failures == []


# ---------------------------------------------------------------------------
# Metrics primitives under contention
# ---------------------------------------------------------------------------
class TestMetricsThreadSafety:
    N_THREADS = 8
    N_OPS = 2000

    def _hammer(self, fn):
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait()
            for _ in range(self.N_OPS):
                fn()

        threads = [
            threading.Thread(target=work) for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_no_lost_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer.count")
        self._hammer(lambda: counter.inc())
        assert counter.value == self.N_THREADS * self.N_OPS

    def test_gauge_add_no_lost_updates(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("hammer.gauge")
        self._hammer(lambda: gauge.add(1.0))
        assert gauge.value == self.N_THREADS * self.N_OPS

    def test_histogram_consistent_totals(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammer.hist")
        self._hammer(lambda: histogram.observe(0.001))
        expected = self.N_THREADS * self.N_OPS
        assert histogram.total == expected
        assert sum(histogram.counts) == expected
        assert histogram.sum == pytest.approx(0.001 * expected)
