"""Cancellation at every region entry, and before every step of a chain.

Both schedulers share one ``run_region`` bracket
(:class:`~repro.execution.scheduler.RegionScheduler`), so one probe on it
reaches every barrier of a query. For a PARTITION→SORT→WINDOW statement
the probe cancels the query's token on entry to the N-th region, for every
N the statement has, under both schedulers with and without a 64 KiB
buffer budget, directly and through :class:`~repro.QueryService`. Each
cancelled run must raise :class:`~repro.QueryCancelled` and leak nothing:
no spill file or ``query-*`` directory, no failed spill release, no
admission reservation — and the next query on the same ``Database`` must
answer correctly.

The SORT → WINDOW → SCAN chain of that statement is one region whose items
run several steps each; a second probe, on the check a chain item makes
before each step (``RegionScheduler.checkpoint``), cancels before the
steps of the first and of the last item with the same guarantees.

The same probe makes every work item of a region raise — of a HASHAGG
merge region, for both merge fan-outs, and of the statement's SORT →
WINDOW → SCAN chain region: the worker's own exception must surface,
typed, with the same no-leak guarantees.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro import Database, EngineConfig, QueryCancelled, QueryService, ServiceConfig
from repro.errors import ExecutionError
from repro.execution import CancellationToken
from repro.execution.context import ExecutionContext
from repro.execution.scheduler import RegionScheduler
from repro.lolepop import partition_op

from tests.helpers import normalized_rows

WINDOW_SQL = "SELECT g, o, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t"
FOLLOW_SQL = "SELECT g, count(*), sum(o) FROM t GROUP BY g"
ROWS = 20_000

SCHEDULERS = {
    "serial": {"execution_mode": "simulated", "num_threads": 1},
    "parallel4": {"execution_mode": "parallel", "num_threads": 4},
}
BUDGETS = {"unbudgeted": None, "64KiB": 64 * 1024}


class WorkerFault(ExecutionError):
    """Raised inside a work item of a failing region."""


def _raise_worker_fault(item):
    raise WorkerFault("injected failure in a work item")


class RegionProbe:
    """Counts ``run_region`` entries and cancels the running query's token
    on entry to the ``cancel_at``-th; makes every work item of the
    ``fail_in`` regions raise :class:`WorkerFault`; keeps the item count of
    the last region of each name in ``items``; records the spill counters
    every execution context reports after its cleanup."""

    def __init__(self, monkeypatch):
        self.entered = 0
        self.cancel_at = None
        self.fail_in = None
        self.items = {}
        self.spill_counters = []
        run_region = RegionScheduler.run_region
        cleanup = ExecutionContext.cleanup

        def probed_run_region(scheduler, operator, phase, items, fn, *args):
            self.entered += 1
            if self.entered == self.cancel_at:
                scheduler.cancellation.cancel()
            self.items[operator] = len(items)
            if operator == self.fail_in:
                fn = _raise_worker_fault
            return run_region(scheduler, operator, phase, items, fn, *args)

        def probed_cleanup(ctx):
            cleanup(ctx)
            self.spill_counters.append(ctx.spill_counters())

        monkeypatch.setattr(RegionScheduler, "run_region", probed_run_region)
        monkeypatch.setattr(ExecutionContext, "cleanup", probed_cleanup)

    def arm(self, cancel_at):
        self.entered = 0
        self.cancel_at = cancel_at
        self.spill_counters.clear()


@pytest.fixture()
def probe(monkeypatch):
    return RegionProbe(monkeypatch)


class StepProbe:
    """Counts the checks chain items make before their steps (from any
    worker thread) and cancels the running query's token at the
    ``cancel_at``-th."""

    def __init__(self, monkeypatch):
        self.passed = 0
        self.cancel_at = None
        self._lock = threading.Lock()
        checkpoint = RegionScheduler.checkpoint

        def probed_checkpoint(scheduler):
            with self._lock:
                self.passed += 1
                hit = self.passed == self.cancel_at
            if hit:
                scheduler.cancellation.cancel()
            checkpoint(scheduler)

        monkeypatch.setattr(RegionScheduler, "checkpoint", probed_checkpoint)

    def arm(self, cancel_at):
        self.passed = 0
        self.cancel_at = cancel_at


@pytest.fixture()
def steps(monkeypatch):
    return StepProbe(monkeypatch)


def make_db():
    db = Database()
    db.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
    rng = np.random.default_rng(5)
    db.insert(
        "t",
        {
            "g": rng.integers(0, 6, ROWS),
            "x": rng.random(ROWS).round(4),
            "o": rng.permutation(ROWS),
        },
    )
    return db


def prepare(probe, spill_dir, scheduler, budget):
    """``(db, config, expected follow-up answer, regions)`` where
    ``regions`` counts the ``run_region`` entries of one uncancelled run
    (which must really be the PARTITION→SORT→WINDOW plan, and really spill
    under the budget)."""
    db = make_db()
    config = EngineConfig(
        memory_budget_bytes=BUDGETS[budget],
        spill_directory=str(spill_dir),
        **SCHEDULERS[scheduler],
    )
    expected = normalized_rows(db.sql(FOLLOW_SQL, engine="naive"))
    probe.arm(None)
    result = db.sql(WINDOW_SQL, config=config.clone(collect_trace=True))
    operators = {record.name for record in result.trace.records}
    assert {"partition", "sort", "window"} <= operators
    assert bool(result.spill["bytes_written"]) == (BUDGETS[budget] is not None)
    assert probe.entered >= 3
    return db, config, expected, probe.entered


def assert_nothing_leaked(probe, spill_dir):
    assert os.listdir(spill_dir) == []
    assert probe.spill_counters, "the cancelled run never reached cleanup"
    assert all(c["release_failures"] == 0 for c in probe.spill_counters)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_cancel_on_entry_to_every_region(probe, tmp_path, scheduler, budget):
    db, config, expected, regions = prepare(probe, tmp_path, scheduler, budget)
    for n in range(1, regions + 1):
        probe.arm(n)
        token = CancellationToken()
        with pytest.raises(QueryCancelled):
            db.sql(WINDOW_SQL, config=config.clone(cancellation=token))
        assert probe.entered == n, "cancellation took effect at a later region"
        assert_nothing_leaked(probe, tmp_path)
        probe.arm(None)
        assert normalized_rows(db.sql(FOLLOW_SQL, config=config)) == expected


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_cancel_at_every_region_releases_the_admission_reservation(
    probe, tmp_path, scheduler, budget
):
    db, config, expected, regions = prepare(probe, tmp_path, scheduler, budget)
    service_config = ServiceConfig(
        memory_budget_bytes=1 << 40, result_cache_size=0
    )
    with QueryService(db, service_config) as service:
        admission = service.admission
        for n in range(1, regions + 1):
            probe.arm(n)
            ticket = service.submit(WINDOW_SQL, config=config)
            assert ticket.est_bytes > 0
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=60)
            assert ticket.state == "cancelled"
            deadline = time.monotonic() + 30
            while admission.running and time.monotonic() < deadline:
                time.sleep(0.001)
            assert admission.running == 0
            assert admission.reserved_bytes == 0.0
            assert_nothing_leaked(probe, tmp_path)
            probe.arm(None)
            follow = service.submit(FOLLOW_SQL, config=config)
            assert normalized_rows(follow.result(timeout=60)) == expected


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_cancel_before_every_chain_step(probe, steps, tmp_path, scheduler, budget):
    db, config, expected, _ = prepare(probe, tmp_path, scheduler, budget)
    steps.arm(None)
    db.sql(WINDOW_SQL, config=config)
    total = steps.passed  # one check per step per item: SORT, WINDOW, SCAN
    assert total >= 3 and total % 3 == 0
    service_config = ServiceConfig(
        memory_budget_bytes=1 << 40, result_cache_size=0
    )
    with QueryService(db, service_config) as service:
        admission = service.admission
        # Before each step of the first item, and of the last.
        for n in sorted({1, 2, 3, total - 2, total - 1, total}):
            probe.arm(None)
            steps.arm(n)
            with pytest.raises(QueryCancelled):
                db.sql(WINDOW_SQL, config=config.clone(cancellation=CancellationToken()))
            assert_nothing_leaked(probe, tmp_path)
            probe.arm(None)
            steps.arm(n)
            ticket = service.submit(WINDOW_SQL, config=config)
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=60)
            assert ticket.state == "cancelled"
            deadline = time.monotonic() + 30
            while admission.running and time.monotonic() < deadline:
                time.sleep(0.001)
            assert admission.running == 0
            assert admission.reserved_bytes == 0.0
            assert_nothing_leaked(probe, tmp_path)
            steps.arm(None)
            assert normalized_rows(db.sql(FOLLOW_SQL, config=config)) == expected


# ---------------------------------------------------------------------------
# A worker exception mid-region: every HASHAGG merge item raises. The query
# under it first builds a WINDOW buffer, which spills under the budget, so
# the failure lands while spill files exist.
# ---------------------------------------------------------------------------
_WINDOWED = "(SELECT g, o, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t) w"
#: Merge fan-out -> a statement taking it (morsel_size 4096, partitions
#: sized at ``MERGE_ROWS_PER_PARTITION`` rows): six groups' partials fit one
#: partition and merge in one item; 20k groups' are scattered into
#: ceil(20k / 4096) = 5 hash partitions and merged one item per partition.
MERGE_ROWS_PER_PARTITION = 4096
MERGE_SQL = {
    "single": f"SELECT g, count(*) AS n, sum(c) AS s FROM {_WINDOWED} GROUP BY g",
    "partitioned": f"SELECT o, sum(c) AS s FROM {_WINDOWED} GROUP BY o",
}


def prepare_merge_failure(probe, monkeypatch, spill_dir, scheduler, budget, merge):
    """``(db, config, expected follow-up answer)``; checks that one
    uncancelled run of the statement takes the ``merge`` fan-out and
    spills under the budget."""
    monkeypatch.setattr(
        partition_op, "ROWS_PER_PARTITION", MERGE_ROWS_PER_PARTITION
    )
    db = make_db()
    config = EngineConfig(
        memory_budget_bytes=BUDGETS[budget],
        spill_directory=str(spill_dir),
        morsel_size=4096,
        **SCHEDULERS[scheduler],
    )
    expected = normalized_rows(db.sql(FOLLOW_SQL, engine="naive"))
    result = db.sql(MERGE_SQL[merge], config=config)
    assert bool(result.spill["bytes_written"]) == (BUDGETS[budget] is not None)
    merge_items = {"single": 1, "partitioned": 5}[merge]
    assert probe.items["hashagg-merge"] == merge_items
    probe.fail_in = "hashagg-merge"
    return db, config, expected


def fail_directly(probe, spill_dir, db, config, sql, expected):
    """One run of ``sql`` whose ``probe.fail_in`` region raises in every
    item: the fault surfaces typed, nothing leaks, the follow-up answers."""
    probe.spill_counters.clear()
    with pytest.raises(WorkerFault):
        db.sql(sql, config=config)
    assert_nothing_leaked(probe, spill_dir)
    probe.fail_in = None
    assert normalized_rows(db.sql(FOLLOW_SQL, config=config)) == expected


def fail_through_service(probe, spill_dir, db, config, sql, expected):
    """:func:`fail_directly` through a :class:`~repro.QueryService`, which
    must also release the statement's admission reservation."""
    service_config = ServiceConfig(
        memory_budget_bytes=1 << 40, result_cache_size=0
    )
    with QueryService(db, service_config) as service:
        admission = service.admission
        probe.spill_counters.clear()
        ticket = service.submit(sql, config=config)
        with pytest.raises(WorkerFault):
            ticket.result(timeout=60)
        assert ticket.state == "failed"
        deadline = time.monotonic() + 30
        while admission.running and time.monotonic() < deadline:
            time.sleep(0.001)
        assert admission.running == 0
        assert admission.reserved_bytes == 0.0
        assert_nothing_leaked(probe, spill_dir)
        probe.fail_in = None
        follow = service.submit(FOLLOW_SQL, config=config)
        assert normalized_rows(follow.result(timeout=60)) == expected


@pytest.mark.parametrize("merge", sorted(MERGE_SQL))
@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_failing_hashagg_merge_item_leaks_nothing(
    probe, monkeypatch, tmp_path, scheduler, budget, merge
):
    db, config, expected = prepare_merge_failure(
        probe, monkeypatch, tmp_path, scheduler, budget, merge
    )
    fail_directly(probe, tmp_path, db, config, MERGE_SQL[merge], expected)


@pytest.mark.parametrize("merge", sorted(MERGE_SQL))
@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_failing_hashagg_merge_item_releases_the_admission_reservation(
    probe, monkeypatch, tmp_path, scheduler, budget, merge
):
    db, config, expected = prepare_merge_failure(
        probe, monkeypatch, tmp_path, scheduler, budget, merge
    )
    fail_through_service(probe, tmp_path, db, config, MERGE_SQL[merge], expected)


# ---------------------------------------------------------------------------
# A worker exception inside a chain region: every item of the WINDOW
# statement's SORT → WINDOW → SCAN region raises — after PARTITION spilled
# under the budget, so the failure lands while spill files exist.
# ---------------------------------------------------------------------------
CHAIN_REGION = "sort+window+scan"


def prepare_chain_failure(probe, spill_dir, scheduler, budget):
    """:func:`prepare`, checking that the statement runs its chain as one
    region, then arming the probe to fail it."""
    db, config, expected, _ = prepare(probe, spill_dir, scheduler, budget)
    assert probe.items[CHAIN_REGION] >= 1
    probe.fail_in = CHAIN_REGION
    return db, config, expected


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_failing_chain_item_leaks_nothing(probe, tmp_path, scheduler, budget):
    db, config, expected = prepare_chain_failure(probe, tmp_path, scheduler, budget)
    fail_directly(probe, tmp_path, db, config, WINDOW_SQL, expected)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_failing_chain_item_releases_the_admission_reservation(
    probe, tmp_path, scheduler, budget
):
    db, config, expected = prepare_chain_failure(probe, tmp_path, scheduler, budget)
    fail_through_service(probe, tmp_path, db, config, WINDOW_SQL, expected)
