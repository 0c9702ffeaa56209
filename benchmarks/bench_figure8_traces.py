"""Figure 8 — execution traces of two queries.

Paper: per-thread morsel timelines (Gantt) for (1) an associative grouping-
set query and (2) a MAD-style nested-aggregate query, at SF 0.5 with 4
threads and 16 buffer partitions. Expected shape:

- query 1 is dominated by the first HASHAGG pre-aggregation pipeline, the
  reaggregation pipelines are barely visible;
- query 2 spends its time in partition / sort / window / re-sort / ordagg
  pipelines over one shared buffer, the second sort visibly cheaper than
  the first (already almost sorted).

The benchmark prints the ASCII Gantt rendering plus the per-operator work
series the figure plots.
"""

import json
import os

import pytest

from repro import Database, EngineConfig
from repro.bench import FIGURE8_QUERIES
from repro.tpch import populate_database

from conftest import SCALE_FACTOR

#: The paper's Figure 8 configuration.
THREADS = 4
PARTITIONS = 16


@pytest.fixture(scope="module")
def db():
    database = Database()
    # The paper uses SF 0.5; default to the benchmark SF for runtime, it
    # does not change the trace structure.
    populate_database(
        database, scale_factor=SCALE_FACTOR, seed=42, tables=["lineitem"]
    )
    return database


@pytest.mark.parametrize("number", sorted(FIGURE8_QUERIES))
def test_figure8_trace(benchmark, db, report, profile_dir, number):
    sql = FIGURE8_QUERIES[number]
    config = EngineConfig(
        num_threads=THREADS, num_partitions=PARTITIONS, collect_trace=True,
    )

    def run():
        return db.sql(sql, engine="lolepop", config=config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    trace = result.trace
    assert trace is not None and trace.records
    section = f"FIGURE 8 — execution traces ({THREADS} threads, {PARTITIONS} partitions)"
    report.add(section, f"\nquery {number}: {sql[:95]}")
    report.add(section, trace.render(width=96))
    for operator in trace.operators():
        report.add(
            section,
            f"    {operator:<14} total work {trace.total_work(operator) * 1000:9.2f} ms "
            f"({sum(1 for r in trace.records if r.name == operator)} morsels)",
        )
    benchmark.extra_info["makespan"] = trace.makespan

    # Per-operator breakdown JSON — what Figure 8's bar series plots.
    breakdown = {
        "query": number,
        "sql": sql,
        "threads": THREADS,
        "partitions": PARTITIONS,
        "makespan_s": trace.makespan,
        "operators": [
            {
                "operator": operator,
                "work_s": trace.total_work(operator),
                "morsels": sum(
                    1 for r in trace.records if r.name == operator
                ),
            }
            for operator in trace.operators()
        ],
        "regions": len(trace.regions),
    }
    benchmark.extra_info["operator_breakdown"] = breakdown
    if profile_dir:
        path = os.path.join(profile_dir, f"figure8_q{number}_breakdown.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(breakdown, handle, indent=1)

    if number == 2:
        # The paper's observation: the second sort is significantly faster
        # than the first (hash partitions already sorted by the key). Both
        # sorts are steps of one chain region, so their items share a
        # phase: each SORT node's span holds its own share of the chain.
        sorts = [
            node.span.duration
            for dag in result.dags
            for node in dag.topological_order()
            if node.name() == "SORT" and node.span is not None
        ]
        if len(sorts) >= 2:
            first, second = sorts[:2]
            report.add(
                section,
                f"    resort vs first sort: {second / max(first, 1e-9):.2f}x "
                f"(paper: significantly faster)",
            )
