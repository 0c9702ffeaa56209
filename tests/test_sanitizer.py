"""Runtime concurrency-sanitizer tests.

Covers the three contracts the sanitizer makes:

- **detection**: a deliberate same-epoch write/write conflict on one
  shared storage object from two worker threads is reported exactly
  once, with both access sites attributed to the racing caller;
- **no false positives**: serial execution, single-thread regions, and
  cross-region (happens-after-barrier) accesses report nothing;
- **zero overhead when off**: with ``SAN.active is None`` a full
  parallel query never enters ``Sanitizer.on_access`` at all
  (count-verified by patching the method), and enabling it makes the
  same query light up the access counters.

Plus the static/dynamic cross-check (``analyzer_false_negatives``) in
both directions and the ``REPRO_SANITIZE`` environment activation.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import Database, EngineConfig
from repro.analysis import sanitizer as san
from repro.analysis.sanitizer import (
    SAN,
    DynamicRace,
    Sanitizer,
    analyzer_false_negatives,
)
from repro.execution.parallel import ParallelScheduler
from repro.execution.scheduler import SimulatedScheduler
from repro.storage.batch import Batch
from repro.storage.buffer import BufferPartition
from repro.storage.column import Column
from repro.types import DataType, Field, Schema

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def sanitizer():
    instance = san.enable()
    instance.reset()
    yield instance
    san.disable()


def _schema() -> Schema:
    return Schema([Field("x", DataType.INT64)])


def _batch(schema: Schema) -> Batch:
    return Batch(schema, [Column.from_values(DataType.INT64, [1, 2, 3])])


def _tiny_db() -> Database:
    db = Database()
    db.create_table("t", {"g": "int64", "x": "float64"})
    db.insert("t", {"g": [0, 1, 0, 1, 2, 2], "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})
    return db


_PARALLEL = EngineConfig(
    num_threads=4, num_partitions=8, execution_mode="parallel"
)


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------
def test_deliberate_write_write_race_is_detected_once(sanitizer):
    schema = _schema()
    partition = BufferPartition(schema)
    batch = _batch(schema)
    barrier = threading.Barrier(2)
    scheduler = ParallelScheduler(num_threads=2)

    def work(item):
        barrier.wait()  # force both appends into flight simultaneously
        partition.append(batch)
        return item

    scheduler.run_region("TEST", "race", [0, 1], work)

    assert len(sanitizer.races) == 1  # deduped per (object, epoch)
    race = sanitizer.races[0]
    assert race.object_type == "BufferPartition"
    assert (race.operator, race.phase) == ("TEST", "race")
    assert race.kinds == ("w", "w")
    assert race.threads[0] != race.threads[1]
    here = str(Path(__file__))
    assert race.site[0] == here and race.other_site[0] == here
    assert "[sanitizer] dynamic race on BufferPartition" in str(race)


def test_single_thread_region_is_race_free(sanitizer):
    schema = _schema()
    partition = BufferPartition(schema)
    batch = _batch(schema)
    scheduler = ParallelScheduler(num_threads=1)
    scheduler.run_region(
        "TEST", "serial", [0, 1], lambda item: partition.append(batch)
    )
    assert sanitizer.races == []
    assert sanitizer.access_count >= 2


def test_simulated_scheduler_brackets_regions_too(sanitizer):
    schema = _schema()
    partition = BufferPartition(schema)
    batch = _batch(schema)
    scheduler = SimulatedScheduler(num_threads=4)
    scheduler.run_region(
        "TEST", "sim", [0, 1, 2], lambda item: partition.append(batch)
    )
    assert sanitizer.region_count == 1
    assert sanitizer.access_count >= 3
    assert sanitizer.races == []


def test_splittable_sort_region_is_not_flagged(sanitizer):
    """Regression: SORT's splittable path reads each partition on the
    region-owning thread (``split`` → ``compact``) before submitting the
    sort to a worker. Owner accesses are ordered by submission and the
    barrier, so a parallel ORDER BY must be race-free."""
    db = _tiny_db()
    for _ in range(5):
        db.sql(
            "SELECT g, sum(x) FROM t GROUP BY g ORDER BY g", config=_PARALLEL
        )
    assert sanitizer.races == []
    assert sanitizer.access_count > 0


def test_conflicts_across_region_barriers_are_not_races(sanitizer):
    """The barrier is a happens-before edge: the same object written by
    different threads in *different* epochs must not be reported."""
    schema = _schema()
    partition = BufferPartition(schema)
    batch = _batch(schema)
    scheduler = ParallelScheduler(num_threads=2)
    for phase in ("one", "two", "three"):
        scheduler.run_region(
            "TEST", phase, [0], lambda item: partition.append(batch)
        )
    assert sanitizer.region_count == 3
    assert sanitizer.races == []


# ----------------------------------------------------------------------
# Zero overhead when off
# ----------------------------------------------------------------------
def test_disabled_sanitizer_is_never_entered(monkeypatch):
    calls = []
    original = Sanitizer.on_access

    def counting(self, obj, kind):
        calls.append(kind)
        return original(self, obj, kind)

    monkeypatch.setattr(Sanitizer, "on_access", counting)
    db = _tiny_db()

    assert SAN.active is None
    db.sql("SELECT g, sum(x) FROM t GROUP BY g ORDER BY g", config=_PARALLEL)
    assert calls == []  # the off path is one attribute test, no calls

    instance = san.enable()
    try:
        db.sql(
            "SELECT g, sum(x) FROM t GROUP BY g ORDER BY g", config=_PARALLEL
        )
        assert calls  # identical query now drives the instrumentation
        assert instance.region_count > 0
        assert instance.access_count > 0
        assert instance.races == []
    finally:
        san.disable()


def test_environment_variable_activates_sanitizer():
    code = (
        "from repro.analysis.sanitizer import SAN; "
        "assert SAN.active is not None"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "REPRO_SANITIZE": "on"},
    )
    subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.analysis.sanitizer import SAN; "
            "assert SAN.active is None",
        ],
        check=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )


# ----------------------------------------------------------------------
# Static/dynamic cross-check
# ----------------------------------------------------------------------
def _race_at(path: str) -> DynamicRace:
    return DynamicRace(
        "BufferPartition", "HASHAGG", "scatter", 7,
        (path, 10), (path, 20), (111, 222), ("w", "w"),
    )


def test_dynamic_race_with_static_finding_is_not_a_false_negative():
    race = _race_at("/abs/src/repro/execution/parallel.py")

    class Static:
        rule = "A1-unlocked-attr-write"
        path = "src/repro/execution/parallel.py"

    assert analyzer_false_negatives([race], [Static()]) == []


def test_dynamic_race_without_static_finding_is_a_false_negative():
    race = _race_at("/abs/src/repro/execution/parallel.py")

    class Elsewhere:
        rule = "A2-scatter-self-write"
        path = "src/repro/reuse/manager.py"

    class WrongRule:  # contract-rule findings never cover a race
        rule = "R5-stringly-rewrite"
        path = "src/repro/execution/parallel.py"

    assert analyzer_false_negatives([race], [Elsewhere(), WrongRule()]) == [
        race
    ]
