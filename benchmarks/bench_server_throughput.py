"""Load generator for the query service.

Spawns N client threads against one :class:`repro.server.QueryService`,
each looping over a fixed query mix (TPC-H + small aggregates), and reports
throughput plus p50/p95/p99 latency per client count. Every result is
verified against a reference computed with direct ``Database.sql`` before
the service starts, so the run doubles as a concurrency correctness check:
a single mismatch fails the process.

The run is bounded: clients stop at the deadline and the main thread joins
them with a watchdog timeout — if any client fails to come back the script
reports a deadlock and exits 2 (what the CI smoke job asserts never
happens).

Usage::

    PYTHONPATH=src python benchmarks/bench_server_throughput.py \
        --clients 1 4 8 --duration 5 --sf 0.01 --report report.json

    --no-plan-cache / --no-result-cache   ablate the caches
    --threads N                           per-query thread count (simulated)
    --reuse off|on|ab                     materialization manager: off
                                          (default), on (reuse-friendly
                                          workload, manager enabled), or ab
                                          (the same sweep against two
                                          identically-populated databases —
                                          manager off vs on — reporting
                                          throughput/latency deltas and the
                                          manager hit rate; the result cache
                                          is disabled for the sweep so the
                                          deltas isolate the reuse layer)
    --telemetry-dir DIR                   capture service telemetry (private
                                          instance, big ring, tight slow
                                          threshold) and dump flight
                                          recorder / slow log / full report
    --slow-ms MS                          slow-query threshold for that dump

Exit status: 0 ok, 1 incorrect results or client errors, 2 deadlock.
"""

from __future__ import annotations

import argparse
import json
import threading
import time

import numpy as np

from repro import Database, QueryService, ServiceConfig
from repro.tpch import TPCH_QUERIES, populate_database

#: Deterministic mixed workload: point-ish aggregates, heavy ordered-set
#: statistics, and TPC-H joins. Weighted towards repeats so the plan cache
#: has something to win on.
def build_workload():
    mix = [
        "SELECT count(*) FROM lineitem",
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), avg(l_extendedprice) "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus",
        "SELECT l_returnflag, median(l_extendedprice) FROM lineitem "
        "GROUP BY l_returnflag",
        "SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority",
        TPCH_QUERIES["q1"],
        TPCH_QUERIES["q6"],
    ]
    return mix


#: Reuse-friendly mix: similar-but-not-identical ordered scans that share
#: one property-keyed buffer, and an aggregate lattice (fine GROUP BY, two
#: coarser projections, a ROLLUP) served from one materialized view. Every
#: query is *byte-identical* with the manager on or off — the client
#: threads compare rows exactly — because the ordered scans carry a
#: total-order sort key (l_orderkey, l_linenumber breaks all ties) and the
#: lattice uses only exact-valued aggregates (counts, min/max, sums of
#: integer-valued columns) with a deterministic ORDER BY over group keys.
def build_reuse_workload():
    ordered = [
        "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
        f"ORDER BY l_extendedprice, l_orderkey, l_linenumber LIMIT {n}"
        for n in (50, 100, 200, 400)
    ]
    lattice = [
        "SELECT l_returnflag, l_linestatus, count(*) AS c, "
        "sum(l_quantity) AS q, min(l_extendedprice) AS lo, "
        "max(l_extendedprice) AS hi FROM lineitem "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus",
        "SELECT l_returnflag, count(*) AS c, sum(l_quantity) AS q "
        "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
        "SELECT l_linestatus, max(l_extendedprice) AS hi FROM lineitem "
        "GROUP BY l_linestatus ORDER BY l_linestatus",
        "SELECT l_returnflag, l_linestatus, count(*) AS c FROM lineitem "
        "GROUP BY ROLLUP (l_returnflag, l_linestatus) "
        "ORDER BY l_returnflag, l_linestatus",
    ]
    return ordered + lattice


def percentile(values, q):
    """Exact percentile from raw samples. Note the labeling contract with
    ``repro.observability.metrics.Histogram``: histogram quantiles
    interpolate within the bucket holding the target rank (reported as
    ``pNN ~``), so they track these exact numbers to within one bucket
    width — in either direction, since interpolation is unbiased rather
    than the former bucket-upper-bound over-report."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))




class Client(threading.Thread):
    def __init__(self, index, service, workload, references, deadline, args):
        super().__init__(name=f"client-{index}", daemon=True)
        self.index = index
        self.session = service.session(
            num_threads=args.threads, morsel_size=args.morsel
        )
        self.workload = workload
        self.references = references
        self.deadline = deadline
        self.latencies = []
        self.completed = 0
        self.incorrect = 0
        self.errors = []
        self.rng = np.random.default_rng(1000 + index)

    def run(self):
        while time.monotonic() < self.deadline:
            sql = self.workload[int(self.rng.integers(len(self.workload)))]
            start = time.monotonic()
            try:
                result = self.session.execute(sql, timeout=120.0)
            except Exception as error:  # noqa: BLE001 — reported below
                self.errors.append(f"{type(error).__name__}: {error}")
                continue
            self.latencies.append(time.monotonic() - start)
            self.completed += 1
            if result.rows() != self.references[sql]:
                self.incorrect += 1


def run_load(db, args, clients, workload=None, result_cache_size=None):
    if workload is None:
        workload = build_workload()
    # Direct-execution reference answers (before the service runs), computed
    # with the exact engine config the client sessions use — simulated-mode
    # execution is deterministic at a fixed config, so every service result
    # must be *byte-identical* to its reference (float summation order and
    # row order both depend on thread count / morsel size, hence the match).
    ref_config = db.config.clone(
        num_threads=args.threads, morsel_size=args.morsel
    )
    references = {
        sql: db.sql(sql, config=ref_config).rows() for sql in workload
    }

    if result_cache_size is None:
        result_cache_size = 0 if args.no_result_cache else 64
    service = QueryService(
        db,
        ServiceConfig(
            max_concurrent=args.max_concurrent,
            max_queue=max(64, clients * 8),
            result_cache_size=result_cache_size,
        ),
    )
    deadline = time.monotonic() + args.duration
    threads = [
        Client(i, service, workload, references, deadline, args)
        for i in range(clients)
    ]
    wall_start = time.monotonic()
    for thread in threads:
        thread.start()
    # Watchdog join: a stuck client means a service deadlock.
    grace = args.duration + 120.0
    for thread in threads:
        thread.join(max(0.0, wall_start + grace - time.monotonic()))
    deadlocked = [t.name for t in threads if t.is_alive()]
    wall = time.monotonic() - wall_start
    service.shutdown(wait=not deadlocked, cancel_running=bool(deadlocked))

    latencies = [lat for t in threads for lat in t.latencies]
    completed = sum(t.completed for t in threads)
    incorrect = sum(t.incorrect for t in threads)
    errors = [e for t in threads for e in t.errors]
    stats = service.stats()
    row = {
        "clients": clients,
        "duration_s": round(wall, 3),
        "completed": completed,
        "incorrect": incorrect,
        "errors": errors[:10],
        "error_count": len(errors),
        "deadlocked_clients": deadlocked,
        "throughput_qps": round(completed / wall, 2) if wall else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50) * 1000, 3),
            "p95": round(percentile(latencies, 95) * 1000, 3),
            "p99": round(percentile(latencies, 99) * 1000, 3),
            "mean": round(
                float(np.mean(latencies)) * 1000 if latencies else 0.0, 3
            ),
        },
        "plan_cache": stats.get("plan_cache"),
        "result_cache": stats.get("result_cache"),
    }
    reuse = getattr(db, "reuse", None)
    if reuse is not None:
        row["reuse"] = reuse.stats()
    return row


def repeated_statement_benchmark(args):
    """Cold-vs-warm latency of one repeated statement: the plan-cache win.

    Uses a join-heavy TPC-H statement on a deliberately small instance so
    parse/bind/translate is a visible fraction of end-to-end latency —
    that front-end work is exactly what a plan-cache hit skips."""
    sql = TPCH_QUERIES["q7"]
    sf = min(args.sf, 0.002)
    out = {}
    for label, cache_size in (("cache_on", 256), ("cache_off", 0)):
        db = Database(plan_cache_size=cache_size)
        populate_database(db, scale_factor=sf, seed=42)
        times = []
        for _ in range(args.repeats):
            start = time.monotonic()
            db.sql(sql)
            times.append((time.monotonic() - start) * 1000)
        out[label] = {
            "first_ms": round(times[0], 3),
            "warm_p50_ms": round(percentile(times[1:], 50), 3),
            "warm_mean_ms": round(float(np.mean(times[1:])), 3),
        }
        if db.plan_cache is not None:
            out[label]["plan_cache"] = db.plan_cache.stats()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--clients", type=int, nargs="+", default=[1, 4, 8])
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--sf", type=float, default=0.01)
    parser.add_argument("--max-concurrent", type=int, default=4)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--morsel", type=int, default=16384)
    parser.add_argument("--repeats", type=int, default=20,
                        help="iterations of the repeated-statement benchmark")
    parser.add_argument("--report", default=None, help="write JSON here")
    parser.add_argument("--no-plan-cache", action="store_true")
    parser.add_argument("--no-result-cache", action="store_true")
    parser.add_argument(
        "--reuse",
        choices=["off", "on", "ab"],
        default="off",
        help="materialization manager mode: on swaps in the reuse-friendly "
        "workload; ab additionally runs the same sweep on a manager-off "
        "twin database and reports the deltas",
    )
    parser.add_argument("--skip-repeat-bench", action="store_true")
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="capture service telemetry into a private instance and dump "
        "flight_recorder.json / slowlog.json / telemetry.json here",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=5.0,
        help="slow-query threshold for the --telemetry-dir capture",
    )
    args = parser.parse_args(argv)

    telemetry = None
    if args.telemetry_dir:
        import os

        from repro.observability.telemetry import Telemetry, TelemetryConfig

        os.makedirs(args.telemetry_dir, exist_ok=True)
        # Private instance, sized so a full load run never rotates events
        # out of the ring (the CI job asserts zero dropped), with a tight
        # slow-query threshold so the slow log actually populates.
        telemetry = Telemetry(
            TelemetryConfig(
                enabled=True,
                ring_capacity=262_144,
                slow_query_threshold_s=args.slow_ms / 1000.0,
                slowlog_capacity=256,
                max_fingerprints=1024,
            )
        )

    reuse_config = None
    if args.reuse != "off":
        from repro.reuse import ReuseConfig

        # Views build on first demand so a short sweep still warms them.
        reuse_config = ReuseConfig(view_min_uses=1)

    plan_cache_size = 0 if args.no_plan_cache else 256
    db = Database(
        plan_cache_size=plan_cache_size,
        telemetry=telemetry,
        reuse=reuse_config if args.reuse in ("on", "ab") else None,
    )
    print(f"loading TPC-H SF {args.sf} ...", flush=True)
    populate_database(db, scale_factor=args.sf, seed=42)
    db_off = None
    if args.reuse == "ab":
        print("loading manager-off twin database ...", flush=True)
        db_off = Database(plan_cache_size=plan_cache_size)
        populate_database(db_off, scale_factor=args.sf, seed=42)

    # In reuse mode the sweep runs the reuse-friendly workload with the
    # result cache off, so every completed query goes through translation
    # and the manager (or, on the twin, the full pipeline).
    workload = build_reuse_workload() if args.reuse != "off" else None
    sweep_cache = 0 if args.reuse != "off" else None

    def show(row, indent="  "):
        lat = row["latency_ms"]
        print(
            f"{indent}clients={row['clients']:<3} "
            f"qps={row['throughput_qps']:<8} "
            f"p50={lat['p50']}ms p95={lat['p95']}ms p99={lat['p99']}ms "
            f"completed={row['completed']} incorrect={row['incorrect']} "
            f"errors={row['error_count']}"
        )

    def pct(off, on):
        return round((on - off) / off * 100.0, 1) if off else 0.0

    runs = []
    ab_runs = []
    failed = deadlocked = False
    for clients in args.clients:
        print(f"running {clients} client(s) for {args.duration}s ...", flush=True)
        row = run_load(
            db, args, clients, workload=workload, result_cache_size=sweep_cache
        )
        runs.append(row)
        show(row)
        if row["incorrect"] or row["error_count"]:
            failed = True
        if row["deadlocked_clients"]:
            deadlocked = True
            print(f"  DEADLOCK: {row['deadlocked_clients']}")
        if db_off is not None:
            row_off = run_load(
                db_off, args, clients, workload=workload, result_cache_size=0
            )
            show(row_off, indent="  [off] ")
            lat_on, lat_off = row["latency_ms"], row_off["latency_ms"]
            delta = {
                "throughput_qps_pct": pct(
                    row_off["throughput_qps"], row["throughput_qps"]
                ),
                "p50_ms_pct": pct(lat_off["p50"], lat_on["p50"]),
                "p95_ms_pct": pct(lat_off["p95"], lat_on["p95"]),
                "p99_ms_pct": pct(lat_off["p99"], lat_on["p99"]),
            }
            ab_runs.append(
                {"clients": clients, "on": row, "off": row_off, "delta": delta}
            )
            print(
                f"  [a/b] qps {delta['throughput_qps_pct']:+}% "
                f"p50 {delta['p50_ms_pct']:+}% p95 {delta['p95_ms_pct']:+}% "
                f"p99 {delta['p99_ms_pct']:+}%"
            )
            if row_off["incorrect"] or row_off["error_count"]:
                failed = True
            if row_off["deadlocked_clients"]:
                deadlocked = True
                print(f"  DEADLOCK (off twin): {row_off['deadlocked_clients']}")

    report = {"config": vars(args), "runs": runs}
    if args.reuse != "off":
        stats = db.reuse.stats()
        report["reuse"] = {"workload": workload, "stats": stats}
        if ab_runs:
            report["reuse"]["ab_runs"] = ab_runs
        print(
            f"reuse manager: hit rate {stats['hit_rate']} "
            f"({stats['hits']} hits / {stats['misses']} misses), "
            f"{stats['views']} views + {stats['buffers']} buffers, "
            f"{stats['resident_bytes']} resident bytes"
        )
    if not args.skip_repeat_bench:
        print("repeated-statement benchmark (plan cache on vs off) ...")
        report["repeated_statement"] = repeated_statement_benchmark(args)
        for label, numbers in report["repeated_statement"].items():
            print(
                f"  {label}: first={numbers['first_ms']}ms "
                f"warm_p50={numbers['warm_p50_ms']}ms"
            )

    if telemetry is not None:
        import os

        report["telemetry"] = telemetry.summary()
        telemetry.recorder.dump_json(
            os.path.join(args.telemetry_dir, "flight_recorder.json")
        )
        with open(
            os.path.join(args.telemetry_dir, "slowlog.json"),
            "w",
            encoding="utf-8",
        ) as handle:
            slow = telemetry.slow_queries()
            records = slow.pop("records")
            json.dump({"stats": slow, "records": records}, handle, indent=1)
        telemetry.dump(os.path.join(args.telemetry_dir, "telemetry.json"))
        summary = report["telemetry"]
        print(
            f"telemetry: {summary['queries_recorded']} queries, "
            f"{summary['fingerprints']} fingerprints, "
            f"{summary['slow_queries']} slow, "
            f"{summary['events_dropped']} events dropped "
            f"-> {args.telemetry_dir}"
        )

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"report written to {args.report}")

    if deadlocked:
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
