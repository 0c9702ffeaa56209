"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

# Every DAG the suite builds doubles as a zero-false-positive sweep for the
# static plan verifier: verify at translate time unless a test overrides
# the mode explicitly (EngineConfig reads this at construction).
os.environ.setdefault("REPRO_VERIFY_PLANS", "on")

from repro import Database, EngineConfig
from repro.tpch import populate_database

from tests.helpers import (  # noqa: F401
    ENGINES,
    assert_engines_agree,
    normalized_rows,
    rows_per_partition,
)

#: Rows per run-time sized partition under :func:`tiny_partitions`: the
#: 500-row ``db`` table then fills every partition its ``num_partitions``
#: cap allows, up to the default 64.
TINY_ROWS_PER_PARTITION = 7


@pytest.fixture
def tiny_partitions():
    """Keep multi-partition buffers and partitioned HASHAGG merges at test
    scale: the hash scatter, per-partition SORT / WINDOW / ORDAGG items and
    MERGE over many runs stay exercised."""
    with rows_per_partition(TINY_ROWS_PER_PARTITION):
        yield


@pytest.fixture
def db():
    """A small mixed-type table with NULLs, shared by many tests."""
    database = Database(num_threads=2)
    database.create_table(
        "r",
        {
            "k": "int64",
            "n": "int64",
            "q": "float64",
            "e": "float64",
            "d": "date",
            "s": "string",
            "b": "bool",
        },
    )
    rng = np.random.default_rng(7)
    size = 500
    import datetime

    days = rng.integers(0, 1000, size)
    database.insert(
        "r",
        {
            "k": [int(v) for v in rng.integers(0, 6, size)],
            "n": [int(v) if v else None for v in rng.integers(0, 4, size)],
            "q": [round(float(v), 3) for v in rng.random(size)],
            "e": [
                round(float(v) * 100, 2) if i % 17 else None
                for i, v in enumerate(rng.random(size))
            ],
            "d": [datetime.date(1992, 1, 1) + datetime.timedelta(days=int(x)) for x in days],
            "s": [["red", "green", "blue", "cyan"][v] for v in rng.integers(0, 4, size)],
            "b": [bool(v) for v in rng.integers(0, 2, size)],
        },
    )
    return database


@pytest.fixture(scope="session")
def tpch_db():
    """Session-scoped tiny TPC-H database."""
    database = Database(num_threads=2)
    populate_database(database, scale_factor=0.004, seed=11)
    return database
