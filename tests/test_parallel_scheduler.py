"""Unit tests for the real-thread ParallelScheduler.

Locks down the execution contract documented in repro.execution.parallel:
region barriers hold, worker exceptions propagate with the worker's
traceback, results and trace spans come from each item run whole, and a
single-thread pool reproduces serial results bit-for-bit.
"""

from __future__ import annotations

import threading
import time
import traceback

import pytest

from repro import Database, EngineConfig
from repro.execution import (
    EXECUTION_MODES,
    ExecutionTrace,
    ParallelScheduler,
)


# ----------------------------------------------------------------------
# Basic API behavior
# ----------------------------------------------------------------------
def test_results_come_back_in_item_order():
    sched = ParallelScheduler(4)
    items = list(range(32))
    # Make later items finish first to prove ordering is by item, not
    # by completion.
    out = sched.run_region(
        "op", "p0", items, lambda i: (time.sleep((31 - i) * 1e-4), i * i)[1]
    )
    assert out == [i * i for i in items]


def test_empty_region_is_a_noop():
    sched = ParallelScheduler(3)
    assert sched.run_region("op", "p0", [], lambda i: i) == []
    assert sched.sim_time == 0.0
    assert sched.serial_time == 0.0


def test_invalid_thread_count_rejected():
    with pytest.raises(ValueError):
        ParallelScheduler(0)


def test_invalid_execution_mode_rejected():
    assert set(EXECUTION_MODES) == {"simulated", "parallel"}
    with pytest.raises(ValueError):
        EngineConfig(execution_mode="warp-speed")


# ----------------------------------------------------------------------
# Barrier semantics
# ----------------------------------------------------------------------
def test_region_barrier_holds_between_regions():
    """No work item of region 2 may start before every item of region 1
    has finished, even when region 1's items take uneven time."""
    sched = ParallelScheduler(4)
    events = []
    lock = threading.Lock()

    def slow(i):
        time.sleep(0.002 * (i + 1))
        with lock:
            events.append(("r1", i, time.perf_counter()))
        return i

    def fast(i):
        with lock:
            events.append(("r2", i, time.perf_counter()))
        return i

    sched.run_region("op", "p0", range(6), slow)
    sched.run_region("op", "p1", range(6), fast)

    last_r1 = max(t for tag, _, t in events if tag == "r1")
    first_r2 = min(t for tag, _, t in events if tag == "r2")
    assert last_r1 <= first_r2


def test_barrier_waits_for_all_items_even_after_a_failure():
    """A failing item must not let its siblings leak into the next region:
    the scheduler drains every future before re-raising."""
    sched = ParallelScheduler(4)
    finished = []

    def work(i):
        if i == 0:
            raise RuntimeError("boom")
        time.sleep(0.005)
        finished.append(i)
        return i

    with pytest.raises(RuntimeError):
        sched.run_region("op", "p0", range(5), work)
    # All non-failing items completed before run_region returned.
    assert sorted(finished) == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# Exception propagation
# ----------------------------------------------------------------------
def _exploding_worker(item):
    if item == 3:
        raise ValueError(f"worker failed on item {item!r}")
    return item


def test_worker_exception_propagates_with_original_traceback():
    sched = ParallelScheduler(2)
    with pytest.raises(ValueError, match="worker failed on item 3") as info:
        sched.run_region("op", "p0", [1, 2, 3], _exploding_worker)
    # The traceback must reach into the worker function's own frame, not
    # stop at the future.result() call on the submitting thread.
    rendered = "".join(
        traceback.format_exception(info.type, info.value, info.tb)
    )
    assert "_exploding_worker" in rendered
    assert "worker failed on item 3" in rendered


def test_first_failing_item_wins_when_several_fail():
    sched = ParallelScheduler(2)

    def work(i):
        raise KeyError(i)

    with pytest.raises(KeyError) as info:
        sched.run_region("op", "p0", [7, 8, 9], work)
    assert info.value.args[0] == 7


# ----------------------------------------------------------------------
# Timing, tracing
# ----------------------------------------------------------------------
def test_serial_time_and_wall_time_accumulate():
    sched = ParallelScheduler(2)
    sched.run_region("op", "p0", range(4), lambda i: time.sleep(0.002))
    assert sched.serial_time > 0.0
    assert sched.sim_time > 0.0
    before = sched.sim_time
    sched.run_region("op", "p1", range(2), lambda i: i)
    assert sched.sim_time > before


def test_trace_records_use_rebased_abutting_regions():
    trace = ExecutionTrace()
    sched = ParallelScheduler(2, trace)
    sched.run_region("a", "p0", range(3), lambda i: time.sleep(0.001))
    first_region_end = sched.sim_time
    sched.run_region("b", "p1", range(3), lambda i: time.sleep(0.001))
    assert len(trace.records) == 6
    ops_a = [r for r in trace.records if r.name == "a"]
    ops_b = [r for r in trace.records if r.name == "b"]
    # Region b's records start at or after region a's span ended.
    assert min(r.start for r in ops_b) >= first_region_end - 1e-9
    assert all(r.end >= r.start for r in trace.records)
    # Worker ids are dense indices, not OS thread idents.
    assert {r.thread for r in trace.records} <= set(range(sched.num_threads))


def test_item_spans_come_from_each_items_marks():
    """A one-step region's item is one span; a chain item's is one per step
    it marked, named by the step's operator. Each carries its item's index
    and the one worker that ran the whole item."""
    trace = ExecutionTrace()
    sched = ParallelScheduler(3, trace)
    assert sched.run_region("a", "p0", range(4), lambda i: i * 2) == [0, 2, 4, 6]

    def chain_item(i):
        start = time.perf_counter()
        middle = time.perf_counter()
        return i, [(0, start, middle), (1, middle, time.perf_counter())]

    out = sched.run_region(
        "sort+scan", "p1", range(5), chain_item, steps=[("sort", True), ("scan", False)]
    )
    assert [value for value, _ in out] == list(range(5))
    one_step, chain = trace.regions
    assert [(u.name, u.item) for u in one_step.children] == [("a", i) for i in range(4)]
    assert [(u.name, u.item) for u in chain.children] == [
        (name, i) for i in range(5) for name in ("sort", "scan")
    ]
    assert chain.attrs["items"] == 5
    for i in range(5):
        assert len({u.thread for u in chain.children if u.item == i}) == 1


# ----------------------------------------------------------------------
# num_threads=1 parity with the serial engine
# ----------------------------------------------------------------------
def _parity_db():
    db = Database()
    db.create_table("t", {"g": "int64", "x": "float64", "s": "string"})
    import numpy as np

    rng = np.random.default_rng(21)
    n = 400
    db.insert(
        "t",
        {
            "g": [int(v) for v in rng.integers(0, 7, n)],
            "x": [float(v) if i % 11 else None for i, v in enumerate(rng.random(n))],
            "s": [["a", "bb", "ccc"][v] for v in rng.integers(0, 3, n)],
        },
    )
    return db


PARITY_QUERIES = [
    "SELECT g, sum(x), count(*), median(x) FROM t GROUP BY g",
    "SELECT g, count(DISTINCT s) FROM t GROUP BY g",
    "SELECT g, x, row_number() OVER (PARTITION BY g ORDER BY x, s) AS rn FROM t",
    "SELECT s, x FROM t ORDER BY x DESC, s LIMIT 17",
    "SELECT g, s, sum(x) FROM t GROUP BY ROLLUP (g, s)",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_one_thread_parallel_matches_serial_bit_for_bit(sql):
    db = _parity_db()
    serial = db.sql(
        sql, config=EngineConfig(num_threads=1, execution_mode="simulated")
    )
    parallel = db.sql(
        sql, config=EngineConfig(num_threads=1, execution_mode="parallel")
    )
    # Bit-for-bit: same rows in the same order, no normalization.
    assert parallel.rows() == serial.rows()
    assert parallel.schema.names() == serial.schema.names()
