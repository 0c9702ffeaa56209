"""The traced run: per-layer metrics, measured from outside.

Every number here comes from timing a call into a public function of one
layer (the module names are the layers) or from reading a public result
field; spans inside the program are a later issue. Each timed call is a
span ``{id, name, parent, start, end, workload, statement}`` kept in memory
and written to ``spans.json`` when the run ends. End-to-end metrics are
never taken from this run.

A traced run does a fixed count of work (one pass or round per variant) and
ignores ``--seconds``. A metric that does not apply to a workload reads 0:
``server.*`` and the telemetry/verifier tolls exist only on
``service_mixed``.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.lolepop.verify import check_dag
from repro.observability.telemetry import GLOBAL_TELEMETRY
from repro.relational.hash_join import HashJoinTable
from repro.relational.kernels import grouped_reduce
from repro.sql import bind, parse_sql
from repro.storage import keys

from digest import input_digest, result_digest
from workloads import (
    SCALES, SPECS, Ops, Scale, Spec, Tables, Yardstick, append_phase, append_slices,
    build_database, engine_config, result_document, service_round, service_sequence,
)

#: Operator names as ``QueryResult.operator_summary()`` reports them.
OPERATORS = (
    "sort", "hashagg", "hashagg-merge", "partition", "ordagg", "window", "merge",
    "combine", "compaction", "scan", "join-probe", "join-build", "project", "spill",
)
#: Operations per round of the service toll pairs (the base round that the
#: cache counts are read from runs the full sequence).
TOLL_OPS = 400
REPEATS = 5  # of a sub-millisecond call (parse, bind, estimate, kernels)


class Spans:
    """In-memory span recorder; ``best_ms`` reduces repeated spans."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, statement: Optional[str] = None):
        record = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, "statement": statement,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def time(self, name: str, call: Callable, statement: Optional[str] = None, repeats: int = 1):
        """Run ``call`` ``repeats`` times, one span each; the last result."""
        result = None
        for _ in range(repeats):
            with self.span(name, statement):
                result = call()
        return result

    def best_ms(self, name: str) -> float:
        """Sum over statements of the shortest span called ``name``."""
        best: Dict[Optional[str], float] = {}
        for s in self.spans:
            if s["name"] == name:
                duration = s["end"] - s["start"]
                best[s["statement"]] = min(duration, best.get(s["statement"], duration))
        return sum(best.values()) * 1000.0


def _pass(spans: Spans, label: str, ops: Ops, statements, execute, results=None) -> float:
    """One pass over ``statements`` under a span; the summed latency of the
    statements that succeeded (their results go into ``results``), read
    against the yardstick sampled during the pass, because the passes that
    a ratio compares run seconds apart."""
    gc.collect()
    yardstick = Yardstick()
    total = 0.0
    with spans.span(label):
        for name, sql in statements.items():
            yardstick.sample()
            with spans.span(label + ".execute", name):
                elapsed = ops.timed(name, lambda: execute(sql))
            if elapsed is not None:
                total += elapsed
                if results is not None:
                    results[name] = ops.last
    return total * yardstick.factor()


def statement_layers(
    spec: Spec, scale: Scale, tables: Tables, seed: int, spill_dir: str, spans: Spans, ops: Ops
) -> dict:
    """sql / logical / lolepop / execution / reuse / baseline layers over
    the workload's statement list."""
    statements = spec.statements
    config = engine_config(spec, spill_dir)
    out: Dict[str, float] = {}

    for _ in range(3):
        with spans.span("storage.table.bulk_load"):
            db, _ = build_database(spec, tables)
    out["storage.table.bulk_load_ms"] = spans.best_ms("storage.table.bulk_load")

    for name, sql in statements.items():
        ast = spans.time("sql.parse", lambda: parse_sql(sql), name, REPEATS)
        spans.time("sql.bind", lambda: bind(ast, db.catalog), name, REPEATS)
        # Database.estimate parses and binds before it estimates.
        spans.time("logical.estimate", lambda: db.estimate(sql), name, REPEATS)
    out["sql.parse_ms"] = spans.best_ms("sql.parse")
    out["sql.bind_ms"] = spans.best_ms("sql.bind")
    out["logical.estimate_ms"] = max(
        0.0, spans.best_ms("logical.estimate") - out["sql.parse_ms"] - out["sql.bind_ms"]
    )

    # First execution on a fresh database: every plan is translated.
    # (``execute`` follows ``db`` when it is rebound to the reuse database.)
    execute = lambda q: db.sql(q, config=config)  # noqa: E731
    translate_s, nodes, results = 0.0, 0, {}
    _pass(spans, "pass.cold", ops, statements, execute, results)
    for name, result in results.items():
        translate_s += result.translate_s
        for dag in result.dags:
            nodes += len(dag.topological_order())
            spans.time("lolepop.verify", lambda: check_dag(dag), name)
    out["lolepop.plan_cold_ms"] = translate_s * 1000.0
    out["lolepop.dag_nodes"] = float(nodes)
    out["lolepop.verify_ms"] = sum(
        (s["end"] - s["start"]) for s in spans.spans if s["name"] == "lolepop.verify"
    ) * 1000.0

    serial = _pass(spans, "pass.untraced", ops, statements, execute)

    # One traced pass: operator busy time and item counts, spill counts.
    traced_config = engine_config(spec, spill_dir, collect_trace=True)
    busy = {op: [0.0, 0] for op in OPERATORS}
    spill = {"bytes_written": 0, "bytes_read": 0, "events": 0}
    results = {}
    traced = _pass(
        spans, "pass.traced", ops, statements,
        lambda q: db.sql(q, config=traced_config), results,
    )
    for result in results.values():
        for op, (seconds, items) in result.operator_summary().items():
            if op in busy:
                busy[op][0] += seconds
                busy[op][1] += items
        for key in spill:
            spill[key] += (result.spill or {}).get(key, 0)
    for op, (seconds, items) in busy.items():
        out[f"lolepop.{op}.busy_s"] = seconds
        out[f"lolepop.{op}.items"] = float(items)
    for key, value in spill.items():
        out[f"storage.spill.{key}"] = float(value)
    wall = sum(s["end"] - s["start"] for s in spans.spans if s["name"] == "pass.traced.execute")
    out["lolepop.interp_share"] = 1.0 - sum(b[0] for b in busy.values()) / wall
    out["trace.overhead_ratio"] = traced / serial

    parallel_config = engine_config(spec, spill_dir, execution_mode="parallel", num_threads=2)
    parallel = _pass(
        spans, "pass.parallel2", ops, statements, lambda q: db.sql(q, config=parallel_config)
    )
    out["execution.parallel2_ratio"] = parallel / serial

    monolithic, yardstick = 0.0, Yardstick()
    with spans.span("pass.monolithic"):
        for name, sql in statements.items():
            yardstick.sample()
            with spans.span("pass.monolithic.execute", name) as span:
                reference = db.sql(sql, engine="monolithic")
            monolithic += span["end"] - span["start"]
            ops.verify(name, result_digest(reference.batch))
    out["baseline.monolithic_ratio"] = monolithic * yardstick.factor() / serial

    if spec.kind == "batch":
        slices = append_slices(tables[spec.fact], scale.appends, seed)
        with spans.span("storage.table.append_small"):
            samples = append_phase(db, spec, tables, slices, ops)
        out["storage.table.append_small_ms"] = statistics.median(samples) * 1000.0

    # The same statements with the materialization manager on: the first
    # pass fills it, the second is served from it.
    del results
    db, _ = build_database(spec, tables, reuse=True)
    _pass(spans, "pass.reuse_fill", ops, statements, execute)
    out["reuse.warm_ratio"] = _pass(spans, "pass.reuse_warm", ops, statements, execute) / serial
    reuse = db.reuse.stats()
    out["reuse.hit_rate"] = reuse["hit_rate"]
    out["reuse.resident_mb"] = reuse["resident_bytes"] / 2**20
    return out


def kernel_layers(spec: Spec, db, spans: Spans) -> dict:
    """``storage.keys`` and ``relational`` kernels on the workload's own key
    columns: the fact table's integer keys, and the string group key as the
    aggregation sees it (gathered through the foreign key when it lives in
    a dimension)."""
    fact = db.table(spec.fact)
    ints = [fact.column(k) for k in spec.int_keys]
    table, column, foreign_key = spec.str_key
    strings = db.table(table).column(column)
    if foreign_key is not None:
        # Dimension keys are 1..n in every generator used here.
        strings = strings.take(fact.column(foreign_key).values - 1)
    value = fact.column(spec.value)
    partitions = spec.profile.get("num_partitions", 64)

    codes, _, groups = keys.group_codes(ints)
    calls = {
        "storage.keys.group_codes_int": lambda: keys.group_codes(ints),
        "storage.keys.group_codes_str": lambda: keys.group_codes([strings]),
        "storage.keys.hash_codes_str": lambda: keys.hash_codes([strings]),
        "storage.keys.partition_ids": lambda: keys.partition_ids(ints, partitions),
        "storage.keys.lexsort": lambda: keys.lexsort_indices(ints),
        "relational.grouped_reduce": lambda: grouped_reduce("sum", value, codes, groups),
    }
    if spec.join is not None:
        build_table, build_key, probe_table, probe_key = spec.join
        build = db.table(build_table).to_batch()
        probe = db.table(probe_table).to_batch().select([probe_key, spec.value])
        calls["relational.hash_join"] = lambda: HashJoinTable(build, [build_key]).probe(
            probe, [probe_key]
        )
    out = {"relational.hash_join_ms": 0.0}
    for name, call in calls.items():
        spans.time(name, call, repeats=REPEATS)
        out[name + "_ms"] = spans.best_ms(name)
    return out


def server_layers(spec: Spec, scale: Scale, tables: Tables, seed: int, spans: Spans, ops: Ops) -> dict:
    """Service-layer counts from one full round, and one extra short round
    per toll, each as a ratio to the same operations on the default path."""
    warmup = scale.service_warmup
    full = service_sequence(tables, warmup, scale.service_ops, seed)
    short = full[: warmup + min(TOLL_OPS, scale.service_ops)]

    yardstick = Yardstick()

    def round_(label: str, sequence=short, **kwargs):
        with spans.span("round." + label):
            return service_round(spec, tables, sequence, warmup, ops, yardstick=yardstick, **kwargs)

    def wall(r) -> float:  # rounds run seconds apart: read against the yardstick
        return r.wall_s * r.factor

    base = round_("full", full)
    cache, service = base.stats["plan_cache"], base.stats["service"]
    out = {
        "server.queue_wait_ms_p50": statistics.median(base.queue_waits) * 1000.0,
        "server.plan_cache.hit_rate": cache["hit_rate"],
        "server.plan_cache.evictions": float(cache["evictions"]),
        "server.admission.rejected": float(service.get("rejected", 0)),
        "storage.table.append_small_ms": statistics.median(base.latencies(kind="append")) * 1000.0,
    }
    default_round = round_("default")
    default = wall(default_round)
    out["server.service_toll_ratio"] = default / wall(round_("direct", via="direct"))
    out["server.result_cache_ratio"] = wall(round_("result_cache", result_cache=64)) / default
    # Throughput of two closed-loop clients over one (same operation count;
    # unscaled, the yardstick is not sampled while two clients run).
    out["server.clients2_scaling"] = (
        default_round.wall_s / round_("clients2", clients=2, check=False).wall_s
    )
    with GLOBAL_TELEMETRY.disabled():
        out["observability.telemetry_toll_ratio"] = default / wall(round_("telemetry_off"))
    out["lolepop.verify_toll_ratio"] = wall(round_("verify_on", verify_plans="on")) / default
    return out


SERVER_ONLY = (
    "server.service_toll_ratio", "server.queue_wait_ms_p50", "server.plan_cache.hit_rate",
    "server.plan_cache.evictions", "server.admission.rejected", "server.result_cache_ratio",
    "server.clients2_scaling", "observability.telemetry_toll_ratio", "lolepop.verify_toll_ratio",
)


def run_traced(name: str, scale_name: str, seed: int, spill_dir: str) -> dict:
    spec, scale = SPECS[name], SCALES[scale_name]
    tables = spec.generate(scale, seed)
    spans, ops = Spans(name), Ops()
    metrics = dict.fromkeys(SERVER_ONLY, 0.0)
    with spans.span("workload"):
        metrics.update(statement_layers(spec, scale, tables, seed, spill_dir, spans, ops))
        metrics.update(kernel_layers(spec, build_database(spec, tables)[0], spans))
        if spec.kind == "service":
            metrics.update(server_layers(spec, scale, tables, seed, spans, ops))
    result = result_document(ops, input_digest(tables, spec.statements), metrics, {})
    result["spans"] = spans.spans
    return result
