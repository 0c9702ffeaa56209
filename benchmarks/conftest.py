"""Shared benchmark fixtures.

Scale factor defaults to 0.02 (≈120k lineitem rows) and can be raised via
``REPRO_SF=0.1 pytest benchmarks/ --benchmark-only``. Every benchmark
records the measured serial time and the simulated parallel makespan in
``benchmark.extra_info``; session teardown prints the paper-shaped
comparison tables collected by the ``report`` fixture.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import pytest

from repro import Database, EngineConfig
from repro.observability.metrics import profile_dict
from repro.tpch import populate_database

SCALE_FACTOR = float(os.environ.get("REPRO_SF", "0.02"))
#: The paper's parallel configuration (Intel i9-7900X: 10 cores / 20 threads).
MANY_THREADS = int(os.environ.get("REPRO_THREADS", "20"))
#: Morsel size scaled to the instance so scans split into enough morsels
#: for morsel-driven parallelism (the paper runs ~600 morsels at SF 10).
MORSEL_SIZE = int(os.environ.get("REPRO_MORSEL", "8192"))


def pytest_addoption(parser):
    parser.addoption(
        "--profile-dir",
        action="store",
        default=None,
        help="write one per-query profile JSON (operator stats + Chrome "
        "trace events) into this directory",
    )


@pytest.fixture(scope="session")
def profile_dir(request):
    """Target directory of ``--profile-dir``, created on demand; ``None``
    when profiling output was not requested."""
    path = request.config.getoption("--profile-dir")
    if path:
        os.makedirs(path, exist_ok=True)
    return path


def write_profile(directory, name, result, db=None):
    """Serialize one traced LOLEPOP QueryResult as ``<directory>/<name>.json``;
    no-op (returns None) without a directory or trace. When ``db`` is
    given, the database's plan-cache statistics (hit rate across the
    benchmark's repeat loops) are embedded under ``"plan_cache"``."""
    if not directory or result.trace is None:
        return None
    payload = profile_dict(result)
    if db is not None and getattr(db, "plan_cache", None) is not None:
        payload["plan_cache"] = db.plan_cache.stats()
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    return path


@pytest.fixture(scope="session")
def tpch():
    db = Database()
    populate_database(db, scale_factor=SCALE_FACTOR, seed=42)
    return db


@pytest.fixture(scope="session")
def tpch_tiny():
    """A ten-times smaller instance for the tuple-at-a-time engine."""
    db = Database()
    populate_database(
        db, scale_factor=max(SCALE_FACTOR / 10, 0.001), seed=42,
        tables=["lineitem"],
    )
    return db


class ReportCollector:
    def __init__(self):
        self.sections = defaultdict(list)

    def add(self, section: str, line: str) -> None:
        self.sections[section].append(line)


_COLLECTOR = ReportCollector()


@pytest.fixture(scope="session")
def report():
    return _COLLECTOR


def pytest_sessionfinish(session, exitstatus):
    capman = session.config.pluginmanager.getplugin("capturemanager")
    if capman:
        capman.suspend_global_capture(in_=True)
    for section in sorted(_COLLECTOR.sections):
        print(f"\n{'=' * 88}\n{section}\n{'=' * 88}")
        for line in _COLLECTOR.sections[section]:
            print(line)
    if capman:
        capman.resume_global_capture()


def run_once(db, sql, engine, threads, **config_kwargs):
    """Execute a query once; return (result, time-at-threads)."""
    config_kwargs.setdefault("morsel_size", MORSEL_SIZE)
    config = EngineConfig(num_threads=threads, **config_kwargs)
    result = db.sql(sql, engine=engine, config=config)
    time_at = result.serial_time if threads == 1 else result.simulated_time
    return result, time_at
