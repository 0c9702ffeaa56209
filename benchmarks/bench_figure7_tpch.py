"""Figure 7 — TPC-H queries with and without additional aggregates.

Paper: execution times of TPC-H Q4/Q5/Q7/Q10/Q12, each also with one or
two extra ordered-set aggregates (+OSA/+2xOSA) and an extra grouping set
(+G.SET). Expected shape:

- base queries: the two engines are close (joins dominate; "the efficiency
  of the aggregation is almost irrelevant");
- +OSA/+2xOSA: the monolithic engine pays extra window re-sorts while the
  LOLEPOP engine reuses one buffer (largest on Q4/Q10/Q12 where more tuples
  reach the aggregation);
- +G.SET: the monolithic engine roughly doubles — the joins re-execute per
  grouping set (UNION ALL), the paper's headline Figure 7 effect.
"""

import pytest

from repro.tpch import FIGURE7_VARIANTS

from conftest import MANY_THREADS, run_once, write_profile

VARIANT_ORDER = ["base", "+OSA", "+2xOSA", "+G.SET"]


def _cases():
    for qid in sorted(FIGURE7_VARIANTS):
        for variant in VARIANT_ORDER:
            if variant in FIGURE7_VARIANTS[qid]:
                yield qid, variant


@pytest.mark.parametrize("qid,variant", list(_cases()))
@pytest.mark.parametrize("engine", ["lolepop", "monolithic"])
def test_figure7(benchmark, tpch, report, profile_dir, qid, variant, engine):
    sql = FIGURE7_VARIANTS[qid][variant]

    def run():
        result, time_at = run_once(tpch, sql, engine, MANY_THREADS)
        return result, time_at

    _, warm_time = run()
    result, time_at = benchmark.pedantic(run, rounds=1, iterations=1)
    time_at = min(time_at, warm_time)
    benchmark.extra_info["simulated_time"] = time_at
    if profile_dir and engine == "lolepop":
        # One extra, instrumented run — kept out of the timed path so the
        # profile's overhead never contaminates the benchmark numbers.
        profiled, _ = run_once(tpch, sql, engine, MANY_THREADS, collect_trace=True)
        safe_variant = variant.replace("+", "plus_").replace(".", "")
        write_profile(
            profile_dir, f"figure7_{qid}_{safe_variant}", profiled, db=tpch
        )
    report.add(
        f"FIGURE 7 — TPC-H {qid} ± extra aggregates ({MANY_THREADS} threads, simulated)",
        f"{qid:<5} {variant:<8} {engine:<11} {time_at * 1000:9.2f} ms"
        f"   ({len(result)} rows)",
    )
