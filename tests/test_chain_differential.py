"""Running a partition chain as one region is invisible in the answer.

Every run of partition-local steps over one buffer — SORT, WINDOW, ORDAGG,
SCAN — is one region whose items each take one partition through all of
them (:func:`repro.lolepop.base.run_chain`). Each shape below is checked
against the naive oracle with and without a buffer budget (a spilled
partition is then read once per item, and written back only when a reader
after the chain needs it), serial and on four real threads, with
``tiny_partitions`` so that every buffer has many partitions.
"""

from __future__ import annotations

import re
import sys

import pytest

from repro import EngineConfig
from repro.lolepop.base import chain_step_over_buffer, partition_chains

from tests.helpers import normalized_rows

pytestmark = pytest.mark.usefixtures("tiny_partitions")

SHAPES = {
    # Two orderings on one buffer: SORT, WINDOW, SORT, WINDOW, SCAN.
    "two_orderings": (
        "SELECT k, q, rank() OVER (PARTITION BY k ORDER BY q, n) AS r1, "
        "sum(q) OVER (PARTITION BY k ORDER BY n) AS s1 FROM r"
    ),
    # Fig. 3 plan 2: ORDAGG, a re-sort of the same buffer, ORDAGG, COMBINE.
    "fig3_plan2": (
        "SELECT k, percentile_disc(0.25) WITHIN GROUP (ORDER BY q) AS p1, "
        "percentile_disc(0.75) WITHIN GROUP (ORDER BY n) AS p2 FROM r GROUP BY k"
    ),
    # A window, then re-aggregation of its column: SORT, WINDOW, SORT, ORDAGG.
    "window_then_reaggregate": (
        "SELECT k, median(q - median(q)) AS mad FROM r GROUP BY k"
    ),
    # ORDER BY … LIMIT: the sorted buffer leaves its chain into a MERGE.
    "order_by_limit": "SELECT q, k FROM r ORDER BY q, k LIMIT 10",
    # The window buffer leaves its chain into a MERGE: the write-back path.
    "window_order_by_limit": (
        "SELECT k, q, rank() OVER (PARTITION BY k ORDER BY q) AS r1 FROM r "
        "ORDER BY k, q LIMIT 20"
    ),
    # A percentile as a window: an ordered-set aggregate per partition.
    "percentile_window": (
        "SELECT k, q, percentile_cont(0.5) WITHIN GROUP (ORDER BY q) "
        "OVER (PARTITION BY k) AS m FROM r"
    ),
}

BUDGETS = {"unbudgeted": None, "1KiB": 1024}
SCHEDULERS = {
    "serial": {},
    "parallel4": {"execution_mode": "parallel", "num_threads": 4},
}


def chains(result):
    """The chains every DAG of ``result`` ran, as lists of operator names."""
    return [
        [node.name() for node in unit]
        for dag in result.dags
        for unit in partition_chains(dag.topological_order())
        if chain_step_over_buffer(unit[0]) is not None
    ]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_chain_matches_the_oracle(db, tmp_path, shape, budget, scheduler):
    sql = SHAPES[shape]
    config = EngineConfig(
        memory_budget_bytes=BUDGETS[budget], spill_directory=str(tmp_path),
        **SCHEDULERS[scheduler],
    )
    result = db.sql(sql, config=config)
    assert normalized_rows(result) == normalized_rows(db.sql(sql, engine="naive"))
    assert chains(result), f"{shape} ran no chain"
    if BUDGETS[budget] is not None:
        assert result.spill["bytes_written"] > 0, f"{shape} did not spill"
        assert result.spill["release_failures"] == 0


def test_the_shapes_run_multi_step_chains(db):
    """The chains are the ones the shapes are named for."""
    ran = {name: chains(db.sql(sql)) for name, sql in SHAPES.items()}
    assert ["SORT", "WINDOW", "SORT", "WINDOW", "SCAN"] in ran["two_orderings"]
    assert ["SORT", "ORDAGG", "SORT", "ORDAGG"] in ran["fig3_plan2"]
    assert ["SORT", "WINDOW", "SORT", "ORDAGG"] in ran["window_then_reaggregate"]
    assert ["SORT"] in ran["order_by_limit"]
    assert ["SORT", "WINDOW"] in ran["window_order_by_limit"]
    assert ["SORT", "WINDOW", "SCAN"] in ran["percentile_window"]


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_explain_analyze_shows_every_chain_step(db, tmp_path, shape, budget):
    """Each step of a chain keeps its own line: rows, and a share of the
    time (its ``node`` span has a non-zero duration)."""
    config = EngineConfig(
        num_threads=4, memory_budget_bytes=BUDGETS[budget],
        spill_directory=str(tmp_path), collect_trace=True,
    )
    result = db.sql(SHAPES[shape], config=config)
    steps = {
        id(node)
        for dag in result.dags
        for unit in partition_chains(dag.topological_order())
        if chain_step_over_buffer(unit[0]) is not None
        for node in unit
    }
    assert steps
    for dag in result.dags:
        for node in dag.topological_order():
            if id(node) in steps:
                assert node.span is not None and node.span.duration > 0, node.name()
    report = db.explain_analyze(SHAPES[shape], config=config)
    for line in report.splitlines():
        if re.match(r"#\d+ (SORT|WINDOW|ORDAGG)\b", line):
            assert " rows=" in line and re.search(r" time=\d+\.\d%", line), line


def test_chain_items_under_thread_churn(db, tmp_path):
    """Eight workers, more than the cores of a small host, and a 1 µs
    switch interval: every item owns its partition and the spill counters
    take a lock, so the answer is the oracle's and each spilled partition
    is still read exactly once (a lost counter update would break the
    equality)."""
    sql = SHAPES["two_orderings"]
    config = EngineConfig(
        execution_mode="parallel", num_threads=8, memory_budget_bytes=1024,
        spill_directory=str(tmp_path),
    )
    expected = normalized_rows(db.sql(sql, engine="naive"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            result = db.sql(sql, config=config)
            assert normalized_rows(result) == expected
            assert result.spill["bytes_read"] == result.spill["bytes_written"] > 0
    finally:
        sys.setswitchinterval(interval)
