#!/usr/bin/env python3
"""The layered performance ledger: one command, four workloads.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
    python3 benchmarks/ledger/run.py --selftest
    python3 benchmarks/ledger/run.py --compare A.json[,A2.json...] B.json[,B2.json...]

Each workload runs in a fresh child process with a scrubbed environment
(no ``REPRO_*`` variable, ``PYTHONHASHSEED=0``, single-threaded BLAS), so
the engine runs its shipped defaults. Every metric is printed as
``<workload>/<metric> <value> <unit>`` and written to ``results.json``;
with ``--workload`` the last line of standard output is the JSON object the
benchmark driver reads. ``--trace 1`` prints the per-layer metrics instead
and writes ``spans.json``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout (spill files, lock, default outputs).
WORK = ROOT / ".ledger_work"
CHILD_TIMEOUT_S = 170
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
LOAD_WARNING = 1.5


@functools.lru_cache(maxsize=None)
def declared() -> dict:
    """BENCHMARK.json: the one list of workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The measurement child
# ----------------------------------------------------------------------
def child_main(request: dict) -> int:
    """Runs in the child process: measure one workload, print one JSON line."""
    spill_dir = tempfile.mkdtemp(prefix="spill-", dir=WORK)
    try:
        if request["trace"]:
            from layers import run_traced

            result = run_traced(request["workload"], request["scale"], request["seed"], spill_dir)
        else:
            from workloads import run_workload

            result = run_workload(
                request["workload"], request["scale"], request["seed"], request["seconds"],
                spill_dir, request.get("fault"),
            )
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def child_environment() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    path = env.get("PYTHONPATH")
    env.update(
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # glibc: keep freed memory in the heap. With the default dynamic
        # trim threshold a 64-row append costs 1.1 or 1.8 ms depending on
        # whether an earlier free happened to shrink the heap.
        MALLOC_TRIM_THRESHOLD_=str(2**31),
        MALLOC_TOP_PAD_=str(2**28),
    )
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, scale: str = "full",
              fault=None) -> dict:
    """Measure one workload in a fresh process; its result dict, with
    ``correct`` decided here (no failed operation, inputs as committed)."""
    request = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "fault": fault,
    }
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(request)],
        stdout=subprocess.PIPE, env=child_environment(), cwd=ROOT, text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: measurement process exited with {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, scale=scale)
    expected = json.loads((HERE / "input_digests.json").read_text())[scale].get(workload)
    if seed == 0 and expected != result["input_digest"]:
        result["errors"].append(
            f"input_digest is {result['input_digest']}, committed {expected}: the generators "
            "or statement texts changed, so numbers no longer compare with earlier runs"
        )
        result["failed"] = max(1, result["failed"])
    result["correct"] = result["failed"] == 0
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def environment() -> dict:
    from importlib.metadata import version

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "loadavg_1m": os.getloadavg()[0],
    }


def units(trace: int) -> dict:
    spec = declared()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_lines(result: dict) -> list:
    unit = units(result["trace"])
    name = result["workload"]
    lines = [f"{name}/{metric} {value!r} {unit.get(metric, '?')}"
             for metric, value in result["metrics"].items()]
    lines.append(f"{name}/ops_attempted {result['attempted']} count")
    lines.append(f"{name}/ops_failed {result['failed']} count")
    return lines


def report(result: dict) -> None:
    info = result.get("info", {})
    if "passes" in info:
        print(f"# {result['workload']}: statement latency = median over {info['passes']} warm "
              "passes (each statement's median and best are in results.json)")
    if "rounds" in info:
        print(f"# {result['workload']}: round figures = median over {info['rounds']} identical "
              "rounds")
    if "yardstick_median_ms" in info:
        print(f"# {result['workload']}: times are read against the host-speed yardstick "
              f"(median {info['yardstick_median_ms']:.2f} ms over {info['yardstick_samples']} "
              "samples this run; see README)")
    if result["seed"] != 0:
        print(f"# {result['workload']}: input_digest {result['input_digest']} (seed "
              f"{result['seed']}; only seed 0 is asserted)")
    for line in report_lines(result):
        print(line)
    for error in result["errors"]:
        print(f"! {result['workload']}: {error}", file=sys.stderr)


def driver_line(result: dict) -> str:
    unit = units(result["trace"])
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": unit[m]} for m, v in result["metrics"].items()},
    })


def write_outputs(out_dir: Path, results: list, env: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = [span for r in results for span in r.pop("spans", [])]
    if spans:
        (out_dir / "spans.json").write_text(json.dumps(spans))
        print(f"# spans: {out_dir / 'spans.json'} ({len(spans)} spans)")
    document = {"environment": env, "workloads": {r["workload"]: r for r in results}}
    (out_dir / "results.json").write_text(json.dumps(document, indent=1))
    print(f"# results: {out_dir / 'results.json'}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _load_set(paths: str) -> dict:
    """{(workload, metric): [value per file]} of a comma-separated set."""
    values: dict = {}
    for path in paths.split(","):
        for workload, result in json.loads(Path(path).read_text())["workloads"].items():
            for metric, value in result["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def _spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a_paths: str, b_paths: str) -> int:
    """One row per workload x metric: both sets' medians and interquartile
    spreads, how much worse B is, the bound, and ok / worse / unresolved (a
    spread is wider than the bound, unless every B run beats every A run)."""
    spec = declared()
    gated = {m["name"]: m for m in spec["end_to_end"]}
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load_set(a_paths), _load_set(b_paths)
    worse_rows = 0
    print(f"{'workload/metric':<48}{'A':>12}{'B':>12}{'spread A':>9}{'spread B':>9}"
          f"{'worse by':>9}{'bound':>6}  verdict")
    for key in sorted(a.keys() & b.keys()):
        metric = key[1]
        median_a, median_b = statistics.median(a[key]), statistics.median(b[key])
        sign = 1.0 if direction.get(metric) == "lower" else -1.0
        delta = sign * (median_b - median_a) / median_a if median_a else 0.0
        verdict, bound = "-", ""
        spread_a, spread_b = _spread(a[key]), _spread(b[key])
        if metric in gated:
            limit = gated[metric]["bound"]
            bound = f"{limit:.0%}"
            b_always_better = all(sign * (y - x) < 0 for x in a[key] for y in b[key])
            if max(spread_a, spread_b) > limit and not b_always_better:
                verdict = "unresolved"
            elif delta > limit:
                verdict = "worse"
                worse_rows += 1
            else:
                verdict = "ok"
        print(f"{'/'.join(key):<48}{median_a:>12.5g}{median_b:>12.5g}{spread_a:>9.1%}"
              f"{spread_b:>9.1%}{delta:>+9.1%}{bound:>6}  {verdict}")
    return 1 if worse_rows else 0


# ----------------------------------------------------------------------
# --selftest
# ----------------------------------------------------------------------
def selftest() -> int:
    """Tiny-scale check of the benchmark itself (not of the engine's speed)."""
    spec = declared()
    problems = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    exact_counts = ("server.plan_cache.hit_rate", "storage.spill.events", "lolepop.dag_nodes")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in spec[section]]
        check(all(NAME_PATTERN.match(n) for n in names), f"{section}: a metric name is malformed")
        for workload in (w["name"] for w in spec["workloads"]):
            first = run_child(workload, 0, 0, trace, "tiny")
            second = run_child(workload, 0, 0, trace, "tiny")
            where = f"{workload} --trace {trace}"
            check(first["correct"], f"{where}: not correct: {first['errors']}")
            check(sorted(first["metrics"]) == sorted(names),
                  f"{where}: emitted {sorted(set(first['metrics']) ^ set(names))} "
                  "differently from BENCHMARK.json")
            check(all(isinstance(v, (int, float)) and math.isfinite(v)
                      for v in first["metrics"].values()), f"{where}: a value is not finite")
            prefixes = [line.split()[0] for line in report_lines(first)]
            check(len(prefixes) == len(set(prefixes)), f"{where}: a metric is printed twice")
            check(first["attempted"] == second["attempted"], f"{where}: ops_attempted differs "
                  f"between two invocations ({first['attempted']} vs {second['attempted']})")
            for name in exact_counts:
                if trace:
                    check(first["metrics"].get(name) == second["metrics"].get(name),
                          f"{where}: count {name} differs between two invocations")
    clean = run_child("tpch_stats", 0, 0, 0, "tiny")
    faulty = run_child("tpch_stats", 0, 0, 0, "tiny",
                       fault={"t2_sum_group": "wrong", "t3_q01": "raise"})
    check(not faulty["correct"] and faulty["failed"] >= 2,
          "fault injection: a wrong answer and a raised error were not counted as failed")
    timed = faulty["info"]["unscaled_statements_ms"]
    check("t2_sum_group" not in timed and "t3_q01" not in timed and "t3_q02" in timed,
          "fault injection: a failed statement's latency was counted")
    check(faulty["attempted"] == clean["attempted"], "fault injection changed ops_attempted")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0, help="added to each generator's default seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start new cycles for about this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the per-layer run (writes spans.json)")
    parser.add_argument("--out", type=Path, default=WORK, help="directory for results.json")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"run.py: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.child:
        return child_main(json.loads(args.child))

    import fcntl

    lock = open(WORK / "lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        print("run.py: another run.py is measuring in this checkout; refusing to start "
              "(two runs would disturb each other's timings)", file=sys.stderr)
        return 3
    # Let SIGTERM unwind normally so a running child is killed, not orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for stale in WORK.glob("spill-*"):  # left by a child that was killed
        shutil.rmtree(stale, ignore_errors=True)

    if args.selftest:
        return selftest()
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    env = environment()
    if env["loadavg_1m"] > LOAD_WARNING:
        print(f"run.py: warning: 1-minute load average is {env['loadavg_1m']:.2f}; "
              "timings will be noisy", file=sys.stderr)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = []
    for name in [args.workload] if args.workload else names:
        result = run_child(name, args.seed, seconds, args.trace)
        report(result)
        results.append(result)
    write_outputs(args.out, results, env)
    if args.workload:
        print(driver_line(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
