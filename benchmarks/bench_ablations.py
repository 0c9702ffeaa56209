"""Ablation benchmarks for the DAG optimizations DESIGN.md calls out.

Not a paper table — these quantify each design choice the paper motivates
qualitatively, by disabling one optimizer flag at a time on the query shape
that exercises it:

- buffer reuse (Figure 3 plan 2: ordered-set + distinct sharing one buffer),
- grouping-set reaggregation vs recomputation (query 8),
- two-phase vs single-phase hash aggregation (query 1),
- static/runtime sort elision (the MSSD plan),
- permutation vectors vs in-place sorting on wide tuples.
"""

import pytest

from repro.bench import TABLE3_QUERIES

from conftest import MANY_THREADS, run_once

ABLATIONS = {
    "buffer_reuse": (
        # Two ordered-set orderings: with reuse one buffer is re-sorted in
        # place, without it each ordering re-materializes the input.
        TABLE3_QUERIES[6],
        {"reuse_buffers": False},
    ),
    "grouping_set_reaggregation": (
        TABLE3_QUERIES[8],
        {"reaggregate_grouping_sets": False},
    ),
    "two_phase_hashagg": (
        TABLE3_QUERIES[1],
        {"two_phase_hashagg": False},
    ),
    "sort_elision": (
        TABLE3_QUERIES[18],
        {"elide_sorts": False},
    ),
    "permutation_vectors": (
        "SELECT l_suppkey, l_linenumber, l_quantity, l_extendedprice, "
        "l_discount, l_tax, l_shipdate, l_commitdate, l_receiptdate, "
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY l_extendedprice) "
        "FROM lineitem GROUP BY l_suppkey, l_linenumber, l_quantity, "
        "l_extendedprice, l_discount, l_tax, l_shipdate, l_commitdate, "
        "l_receiptdate",
        {"permutation_vectors": False},
    ),
}


def test_spilling_overhead(benchmark, tpch, report):
    """Not in the paper (its §7 names spilling as future work): the cost of
    running the ordered-set pipeline under a constrained memory budget."""
    sql = TABLE3_QUERIES[4]

    def run():
        in_memory, _ = run_once(tpch, sql, "lolepop", 1)
        spilled, _ = run_once(
            tpch, sql, "lolepop", 1, memory_budget_bytes=512 * 1024
        )
        return in_memory.serial_time, spilled.serial_time

    warm = run()
    timed = benchmark.pedantic(run, rounds=1, iterations=1)
    in_memory = min(warm[0], timed[0])
    spilled = min(warm[1], timed[1])
    report.add(
        "ABLATIONS — optimizer passes on/off",
        f"{'spilling (512KB budget)':<28} work 1T: {in_memory * 1000:8.2f} -> "
        f"{spilled * 1000:8.2f} ms (x{spilled / max(in_memory, 1e-9):4.2f})   "
        f"[future-work variant]",
    )


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation(benchmark, tpch, report, name):
    """Reports both total work (1-thread measured time) and parallel
    makespan: passes like buffer reuse and reaggregation save *work*, while
    two-phase aggregation buys *scalability* (its pre-aggregation is pure
    overhead to a sort-based kernel substrate but removes the single-table
    bottleneck at 20 threads)."""
    sql, disabled_flags = ABLATIONS[name]

    def run():
        enabled_result, _ = run_once(tpch, sql, "lolepop", 1)
        disabled_result, _ = run_once(tpch, sql, "lolepop", 1, **disabled_flags)
        _, enabled_many = run_once(tpch, sql, "lolepop", MANY_THREADS)
        _, disabled_many = run_once(
            tpch, sql, "lolepop", MANY_THREADS, **disabled_flags
        )
        return (
            enabled_result.serial_time,
            disabled_result.serial_time,
            enabled_many,
            disabled_many,
        )

    warm = run()
    timed = benchmark.pedantic(run, rounds=1, iterations=1)
    work_on, work_off, span_on, span_off = (
        min(a, b) for a, b in zip(warm, timed)
    )
    benchmark.extra_info.update({"work_enabled": work_on, "work_disabled": work_off})
    report.add(
        "ABLATIONS — optimizer passes on/off",
        f"{name:<28} work 1T: {work_on * 1000:8.2f} -> {work_off * 1000:8.2f} ms "
        f"(x{work_off / max(work_on, 1e-9):4.2f})   "
        f"makespan {MANY_THREADS}T: {span_on * 1000:7.2f} -> {span_off * 1000:7.2f} ms "
        f"(x{span_off / max(span_on, 1e-9):4.2f})",
    )
