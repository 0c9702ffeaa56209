"""Differential tests for parallel execution mode.

Every query of the fixed differential corpus (and a TPC-H subset, and the
grouping-sets / window shapes) must produce the same rows under
``execution_mode="parallel"`` at 2, 4, and 8 threads as the serial LOLEPOP
engine and the naive row-engine baseline. Reference answers are computed
once per query and cached, so each extra thread count only pays for the
parallel run itself.

Every test runs under ``tiny_partitions``: with the engine's own sizing
these small tables would make one partition each, and here they fill every
partition the ``num_partitions`` cap allows, so real threads race over many
partitions.
"""

from __future__ import annotations

import re
import time

import pytest

from repro import EngineConfig
from repro.tpch.queries import TPCH_QUERIES

from tests.helpers import normalized_rows
from tests.test_engine_differential import FIXED_QUERIES

THREAD_COUNTS = [2, 4, 8]

pytestmark = pytest.mark.usefixtures("tiny_partitions")

#: sql -> (naive_reference, serial_lolepop_rows); filled lazily per query.
_REFERENCE_CACHE = {}


def _references(db, sql, **config_kwargs):
    key = (id(db), sql, tuple(sorted(config_kwargs.items())))
    if key not in _REFERENCE_CACHE:
        naive = normalized_rows(db.sql(sql, engine="naive"))
        serial = normalized_rows(
            db.sql(
                sql,
                config=EngineConfig(num_threads=1, **config_kwargs),
            )
        )
        _REFERENCE_CACHE[key] = (naive, serial)
    return _REFERENCE_CACHE[key]


def _assert_parallel_agrees(db, sql, threads, **config_kwargs):
    naive, serial = _references(db, sql, **config_kwargs)
    config = EngineConfig(
        num_threads=threads, execution_mode="parallel", **config_kwargs
    )
    got = normalized_rows(db.sql(sql, config=config))
    assert got == serial, (
        f"parallel@{threads}T diverges from serial lolepop on: {sql}"
    )
    assert got == naive, f"parallel@{threads}T diverges from naive on: {sql}"


@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("sql", FIXED_QUERIES, ids=range(len(FIXED_QUERIES)))
def test_parallel_matches_serial_on_fixed_corpus(db, sql, threads):
    _assert_parallel_agrees(db, sql, threads, num_partitions=8)


# ----------------------------------------------------------------------
# Grouping sets and window shapes at higher partition counts (exercises
# the keyed-partition scatter and the per-partition chain items harder).
# ----------------------------------------------------------------------
STRESS_QUERIES = [
    "SELECT k, n, sum(q), count(*) FROM r GROUP BY GROUPING SETS ((k, n), (k), ())",
    "SELECT k, n, median(q) FROM r GROUP BY CUBE (k, n)",
    "SELECT k, q, sum(q) OVER (PARTITION BY k ORDER BY q, e, d) AS cs, "
    "row_number() OVER (PARTITION BY k ORDER BY q, e, d) AS rn FROM r",
    "SELECT k, ntile(4) OVER (PARTITION BY k ORDER BY q, e, d) AS nt FROM r",
    "SELECT k, sum(q) AS s, percentile_disc(0.5) WITHIN GROUP (ORDER BY q) AS p "
    "FROM r GROUP BY k ORDER BY s DESC",
]


@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("sql", STRESS_QUERIES, ids=range(len(STRESS_QUERIES)))
def test_parallel_matches_serial_on_stress_shapes(db, sql, threads):
    _assert_parallel_agrees(db, sql, threads, num_partitions=16)


def test_stress_shapes_build_many_partitions(db):
    """The window stress shape's PARTITION notes the count it chose from its
    500 rows: the whole cap of 16, so the multi-partition coverage above is
    real."""
    config = EngineConfig(num_threads=4, execution_mode="parallel", num_partitions=16)
    report = db.explain_analyze(STRESS_QUERIES[2], config=config)
    assert re.findall(r"\bpartitions=(\d+)", report) == ["16"]


# ----------------------------------------------------------------------
# TPC-H subset (multi-table plans: joins feeding statistics regions).
# ----------------------------------------------------------------------
TPCH_SUBSET = ["q1", "q6", "q4", "q12"]


@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("name", TPCH_SUBSET)
def test_parallel_matches_serial_on_tpch(tpch_db, name, threads):
    _assert_parallel_agrees(tpch_db, TPCH_QUERIES[name], threads)


# ----------------------------------------------------------------------
# Parallel mode composes with the other config knobs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config_kwargs",
    [
        {"num_partitions": 2},
        {"morsel_size": 64},
        {"two_phase_hashagg": False},
        {"permutation_vectors": False},
        {"elide_sorts": False},
    ],
    ids=lambda kw: next(iter(kw.items()))[0],
)
def test_parallel_respects_config_knobs(db, config_kwargs):
    sql = (
        "SELECT k, sum(q), count(DISTINCT n), median(e) FROM r "
        "GROUP BY k ORDER BY k"
    )
    _assert_parallel_agrees(db, sql, 4, **config_kwargs)


def test_combine_union_lists_grouping_sets_in_item_order(db, monkeypatch):
    """COMBINE's union items may finish in any order; the result lists the
    grouping sets in item order whatever the finishing order. Item 0 sleeps,
    so on 4 threads it finishes last."""
    from repro.execution.context import ExecutionContext

    parallel_for = ExecutionContext.parallel_for

    def first_item_late(self, operator, items, fn, steps=None):
        if operator == "combine":
            work = fn

            def fn(item):
                if item[0] == 0:
                    time.sleep(0.05)
                return work(item)

        return parallel_for(self, operator, items, fn, steps)

    monkeypatch.setattr(ExecutionContext, "parallel_for", first_item_late)
    sql = (
        "SELECT k, s, count(*) AS c, min(q) AS lo FROM r "
        "GROUP BY GROUPING SETS ((k), (s), ())"
    )
    serial = db.sql(sql, config=EngineConfig(num_threads=1)).rows()
    config = EngineConfig(num_threads=4, execution_mode="parallel")
    assert db.sql(sql, config=config).rows() == serial
