"""The four workloads and the untraced (end-to-end) measurement.

Everything here runs in the measurement child process (see ``run.py``) and
touches the engine only through public entry points: ``Database``,
``QueryService``/``Session``, ``EngineConfig`` and the data generators.

Estimators. One closed-loop client. A run is a sequence of identical
*cycles*, each a fixed count of operations: set-up (fresh database, bulk
load, first use) followed by timed work (batch: warm passes over the
statements plus small appends; service: one round of the traffic mix).
``--seconds`` only buys how many cycles run. Every statistic is a median
(over a statement's passes, over rounds, over cycles) and every time is
read against the host-speed :class:`Yardstick` sampled during the same
run or round; ``gc.collect()`` runs before each pass/round and GC stays on.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import Database, QueryService, ServiceConfig
from repro.bench.corpora import generate_sensor, generate_star
from repro.bench.corpora.sensor import SENSOR_SCHEMAS
from repro.bench.corpora.star import STAR_SCHEMAS
from repro.execution.context import EngineConfig
from repro.observability.metrics import MetricsRegistry
from repro.tpch.datagen import LINEITEM_SCHEMA, ORDERS_SCHEMA, generate_tpch

from digest import digests_match, input_digest, result_digest
from statements import SENSOR_SPILL, SERVICE_ADHOC, SERVICE_HOT, STAR_LATTICE, TPCH_STATS

Tables = Dict[str, Dict[str, np.ndarray]]

APPEND_ROWS = 64
OP_TIMEOUT_S = 120.0

#: The sensor workload's engine profile (a frozen copy of the corpus's
#: ``EDGE_PROFILE``): a 64 KiB loaded-buffer budget that every PARTITION
#: overflows, 2k-row morsels, 8 partitions.
EDGE_PROFILE = {"memory_budget_bytes": 64 * 1024, "morsel_size": 2048, "num_partitions": 8}


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale. ``full`` is what BENCHMARK.json gates;
    ``tiny`` is for ``--selftest``. Scale factors are the ISSUE's, cut so a
    run with its set-up and verification fits the driver's ~35 s slot
    while every fact table keeps >= 200k rows."""

    tpch_sf: float
    star_sf: float
    sensor_sf: float
    service_sf: float
    appends: int
    service_ops: int
    service_warmup: int
    min_cycles: int = 3
    max_cycles: int = 5
    warm_passes: int = 2  # per cycle of a batch workload


SCALES = {
    "full": Scale(0.0335, 1.34, 1.0, 0.001, appends=50, service_ops=1000, service_warmup=100),
    "tiny": Scale(
        0.002, 0.02, 0.05, 0.0005, appends=5, service_ops=120, service_warmup=20,
        min_cycles=2, max_cycles=2, warm_passes=1,
    ),
}


@dataclass(frozen=True)
class Spec:
    """One workload: generator, schemas, statements and engine profile."""

    name: str
    kind: str  # "batch" | "service"
    generate: Callable[[Scale, int], Tables]  # (scale, seed offset) -> arrays
    schemas: Mapping[str, Mapping[str, str]]
    fact: str  # the table appends go to (batch: through a scratch copy)
    statements: Mapping[str, str]
    profile: Mapping[str, Any] = field(default_factory=dict)
    #: (build table, build key, probe table, probe key) for the join kernel.
    join: Optional[Tuple[str, str, str, str]] = None
    #: Integer key columns of the fact table, and where its string group
    #: key comes from: (table, string column, fact foreign key or None).
    int_keys: Tuple[str, ...] = ()
    str_key: Tuple[str, str, Optional[str]] = ("", "", None)
    value: str = ""  # a float column of the fact table


def _tpch(tables: List[str], sf_of: Callable[[Scale], float]):
    def generate(scale: Scale, seed: int) -> Tables:
        data = generate_tpch(sf_of(scale), 42 + seed)
        return {name: data[name] for name in tables}

    return generate


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "tpch_stats", "batch", _tpch(["lineitem"], lambda s: s.tpch_sf),
            {"lineitem": LINEITEM_SCHEMA}, "lineitem", TPCH_STATS,
            int_keys=("l_suppkey", "l_linenumber"),
            str_key=("lineitem", "l_returnflag", None), value="l_quantity",
        ),
        Spec(
            "star_lattice", "batch", lambda s, seed: generate_star(s.star_sf, 7 + seed),
            STAR_SCHEMAS, "sales", STAR_LATTICE,
            join=("store", "st_store_id", "sales", "s_store_id"),
            int_keys=("s_store_id", "s_date_id"),
            str_key=("store", "st_region", "s_store_id"), value="s_net_price",
        ),
        Spec(
            "sensor_spill", "batch", lambda s, seed: generate_sensor(s.sensor_sf, 13 + seed),
            SENSOR_SCHEMAS, "readings", SENSOR_SPILL, profile=EDGE_PROFILE,
            join=("devices", "v_device", "readings", "r_device"),
            int_keys=("r_device", "r_tick"),
            str_key=("devices", "v_site", "r_device"), value="r_temp",
        ),
        Spec(
            "service_mixed", "service",
            _tpch(["lineitem", "orders"], lambda s: s.service_sf),
            {"lineitem": LINEITEM_SCHEMA, "orders": ORDERS_SCHEMA}, "lineitem",
            # One instance of each ad-hoc template stands for the class
            # wherever a statement list is needed (input digest, layers).
            {**SERVICE_HOT, **{k: v.format(lit=1) for k, v in SERVICE_ADHOC.items()}},
            join=("orders", "o_orderkey", "lineitem", "l_orderkey"),
            int_keys=("l_suppkey", "l_linenumber"),
            str_key=("lineitem", "l_returnflag", None), value="l_quantity",
        ),
    )
}


# ----------------------------------------------------------------------
# Operation accounting
# ----------------------------------------------------------------------
class Ops:
    """Counts attempted/failed operations and keeps result digests.

    An operation fails if it raises (a refused admission and a timeout
    raise too) or fails verification; ``timed`` then returns ``None`` so a
    failed operation's latency is never counted. ``fault`` maps a statement
    name to ``"raise"`` or ``"wrong"`` (``--selftest`` injects these).
    """

    def __init__(self, fault: Optional[Mapping[str, str]] = None):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.bad: set = set()  # names with a failed verification
        self.last = None  # result of the latest operation, if it succeeded
        self._fault = dict(fault or {})
        self._slots: Dict[str, list] = {}  # slot -> [name, digest, executions]

    def fail(self, name: str, why: str, count: int = 1) -> None:
        self.failed += count
        self.bad.add(name)
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {why}")

    def timed(
        self, name: str, call: Callable[[], Any], slot: Optional[str] = None,
        digest: bool = True,
    ) -> Optional[float]:
        """Run ``call`` once; seconds it took, or ``None`` if it failed.
        With ``digest`` the result must repeat the first digest seen for
        ``slot`` (default: the name) and is kept for :meth:`verify`."""
        self.attempted += 1
        self.last = None
        try:
            if self._fault.get(name) == "raise":
                raise RuntimeError("injected failure")
            started = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 — a failed operation, counted
            self.fail(name, f"{type(error).__name__}: {error}")
            return None
        if not digest:
            self.last = result
            return elapsed
        got = result_digest(result.batch)
        if self._fault.get(name) == "wrong":
            got = (got[0] + 1,) + got[1:]
        entry = self._slots.setdefault(slot or name, [name, got, 0])
        if not digests_match(entry[1], got):
            self.fail(name, f"result changed between executions ({slot or name})")
            return None
        entry[2] += 1
        self.last = result
        return elapsed

    def verify(self, slot: str, reference: Tuple) -> None:
        """Compare the kept digest of ``slot`` with an independent one; on a
        mismatch every execution of the slot counts as failed."""
        entry = self._slots.get(slot)
        if entry is not None and not digests_match(entry[1], reference):
            self.fail(entry[0], f"differs from the reference ({slot})", entry[2])


# ----------------------------------------------------------------------
# Host-speed yardstick
# ----------------------------------------------------------------------
class Yardstick:
    """A fixed reference kernel, timed all through a run.

    The box this runs on shares its cores: for minutes at a time the same
    code runs 10-40 % slower, with no steal time reported and CPU time
    equal to wall time, so neither a minimum within a 25 s run nor a CPU
    clock removes it (best-of-6 statement latencies moved 5-7 % between
    runs, 20-40 % in a bad spell). The kernel (stable sort, gather +
    segmented reduce, integer and object-string ``np.unique``, an
    interpreter loop: the engine's own mix, none of the engine's code) is
    sampled before every statement and every 50 service operations, and a
    measured time is multiplied by ``NOMINAL_S / median sample`` of the
    same run (batch) or round (service): milliseconds as this box runs
    them when the kernel takes ``NOMINAL_S``. Median statement latencies
    read this way moved 1.5-2.4 % between the same runs. Both sides of a
    comparison are read against the same kernel, so ratios between commits
    are unchanged.
    """

    #: The kernel's median time on the quiet box the benchmark was sized
    #: on, so that scaled values read as that box's wall time.
    NOMINAL_S = 0.0095
    EVERY_OPS = 50

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._keys = rng.integers(0, 5000, 40_000)
        self._gather = rng.integers(0, 400_000, 400_000)
        self._values = rng.random(400_000)
        self._bounds = np.arange(0, 400_000, 20)
        self._strings = np.array([f"key-{i % 97}" for i in range(5_000)], dtype=object)
        self.samples: List[float] = []

    def sample(self) -> float:
        started = time.perf_counter()
        np.argsort(self._keys, kind="stable")
        np.add.reduceat(self._values[self._gather], self._bounds)
        np.unique(self._keys, return_inverse=True)
        np.unique(self._strings)
        total = 0
        for i in range(30_000):
            total += i * i
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def factor(self, since: int = 0) -> float:
        """What to multiply a time by that was measured while the samples
        from index ``since`` on were taken."""
        return self.NOMINAL_S / statistics.median(self.samples[since:])

    def describe(self) -> Dict[str, float]:
        """For ``results.json``, beside the scaled metrics."""
        return {
            "yardstick_median_ms": _ms(statistics.median(self.samples)),
            "yardstick_best_ms": _ms(min(self.samples)),
            "yardstick_samples": len(self.samples),
        }


def scaled(metrics: Dict[str, float], factor: float) -> Dict[str, float]:
    """Every time metric times the yardstick factor, the rate over it,
    memory untouched."""
    return {
        name: value if name == "peak_rss_mb"
        else value / factor if name == "throughput_qps" else value * factor
        for name, value in metrics.items()
    }


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def build_database(spec: Spec, tables: Tables, **database_kwargs) -> Tuple[Database, float]:
    """A fresh database holding the workload's tables (plus the empty
    ``<fact>_ingest`` scratch table of a batch workload, created here so
    later passes issue no DDL, which would flush the plan cache). Returns
    the bulk-load seconds too."""
    started = time.perf_counter()
    db = Database(**database_kwargs)
    for name, schema in spec.schemas.items():
        db.create_table(name, schema).insert_arrays(tables[name])
    if spec.kind == "batch":
        db.create_table(spec.fact + "_ingest", spec.schemas[spec.fact])
    return db, time.perf_counter() - started


def engine_config(spec: Spec, spill_dir: str, **overrides) -> Optional[EngineConfig]:
    """The workload's EngineConfig; ``None`` (the database's shipped
    default) when the workload neither has a profile nor overrides it."""
    if not spec.profile and not overrides:
        return None
    kwargs = dict(spec.profile)
    if "memory_budget_bytes" in kwargs:
        kwargs["spill_directory"] = spill_dir
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def append_slices(fact: Dict[str, np.ndarray], count: int, seed: int):
    """``count`` deterministic 64-row slices of the fact arrays."""
    rows = len(next(iter(fact.values())))
    starts = np.random.default_rng(500 + seed).integers(0, rows - APPEND_ROWS, count)
    return [{c: v[s : s + APPEND_ROWS] for c, v in fact.items()} for s in starts]


def append_phase(db: Database, spec: Spec, tables: Tables, slices, ops: Ops) -> List[float]:
    """Refill the scratch copy (so growth never accumulates across passes),
    time each small append through ``Database.insert``, empty it again."""
    scratch = spec.fact + "_ingest"
    table = db.table(scratch)
    table.truncate()
    table.insert_arrays(tables[spec.fact])
    samples = []
    for data in slices:
        before = table.num_rows
        elapsed = ops.timed("append", lambda: db.insert(scratch, data), digest=False)
        if elapsed is not None and table.num_rows != before + APPEND_ROWS:
            ops.fail("append", "row count did not grow by the appended rows")
        elif elapsed is not None:
            samples.append(elapsed)
    table.truncate()
    return samples


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_batch(spec: Spec, scale: Scale, seed: int, seconds: float, spill_dir: str,
              fault=None) -> dict:
    tables = spec.generate(scale, seed)
    inputs = input_digest(tables, spec.statements)
    config = engine_config(spec, spill_dir)
    slices = append_slices(tables[spec.fact], scale.appends, seed)
    ops = Ops(fault)
    yardstick = Yardstick()

    setups: List[float] = []
    cold: Dict[str, List[float]] = {name: [] for name in spec.statements}
    warm: Dict[str, List[float]] = {name: [] for name in spec.statements}
    append_p50: List[float] = []
    db = None

    def one_pass(into: Dict[str, List[float]]) -> float:
        """Every statement once; the summed latency of those that succeeded."""
        total = 0.0
        for name, sql in spec.statements.items():
            yardstick.sample()
            elapsed = ops.timed(name, lambda: db.sql(sql, config=config))
            if elapsed is not None:
                into[name].append(elapsed)
                total += elapsed
        return total

    started = time.perf_counter()
    while len(setups) < scale.min_cycles or (
        len(setups) < scale.max_cycles and time.perf_counter() - started < seconds
    ):
        # Set-up: new database (the old one freed first), bulk load, first
        # (plan-cache-miss) execution of every statement.
        db = None
        gc.collect()
        db, load_s = build_database(spec, tables)
        setups.append(load_s + one_pass(cold))
        for _ in range(scale.warm_passes):
            gc.collect()
            one_pass(warm)
            yardstick.sample()
            samples = append_phase(db, spec, tables, slices, ops)
            if samples:
                append_p50.append(statistics.median(samples))
    rss = peak_rss_mb()  # before the reference engine runs in this process

    for name, sql in spec.statements.items():
        ops.verify(name, result_digest(db.sql(sql, engine="monolithic").batch))

    good = [n for n in spec.statements if n not in ops.bad and warm[n] and cold[n]]
    metrics: Dict[str, float] = {"peak_rss_mb": rss, "setup_s": statistics.median(setups)}
    if good:
        latency = [statistics.median(warm[n]) for n in good]
        metrics.update(
            throughput_qps=len(latency) / sum(latency),
            query_geomean_ms=_ms(geomean(latency)),
            hot_ms_p50=_ms(statistics.median(latency)),
            adhoc_ms_p50=_ms(statistics.median(statistics.median(cold[n]) for n in good)),
            stmt_ms_p99=_ms(nearest_rank(latency, 0.99)),
        )
    if append_p50 and "append" not in ops.bad:
        metrics["append_ms_p50"] = _ms(statistics.median(append_p50))
    return result_document(ops, inputs, scaled(metrics, yardstick.factor()), {
        "passes": len(setups) * scale.warm_passes,
        "setup_cycles_s": setups,
        "unscaled_statements_ms": {
            n: {"median": _ms(statistics.median(warm[n])), "best": _ms(min(warm[n]))}
            for n in good
        },
        **yardstick.describe(),
    })


def result_document(ops: Ops, inputs: str, metrics: Dict[str, float], info: dict) -> dict:
    """What the measurement child hands back to ``run.py``."""
    return {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "input_digest": inputs,
        "metrics": metrics,
        "info": info,
    }


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
def service_sequence(tables: Tables, warmup: int, count: int, seed: int):
    """``warmup + count`` operations ``(class, name, payload)``. Each part
    holds the same multiset whatever the seed -- 60 % hot (the 8 fixed
    statements equally often), 37 % ad hoc (the 3 templates equally often,
    each text with a literal that never repeats, so it misses the plan
    cache), 3 % append (64 lineitem rows) -- and the seed only orders it:
    were the counts drawn too, the realised mix would move a round's
    throughput by ~3 % from seed to seed."""
    rng = np.random.default_rng(1000 + seed)
    rows = len(tables["lineitem"]["l_orderkey"])
    hot, adhoc = list(SERVICE_HOT.items()), list(SERVICE_ADHOC.items())
    sequence = []
    for part in (warmup, count):
        kinds = ["hot"] * round(0.60 * part) + ["append"] * round(0.03 * part)
        kinds += ["adhoc"] * (part - len(kinds))
        seen = {"hot": 0, "adhoc": 0}
        for kind in (kinds[i] for i in rng.permutation(part)):
            if kind == "append":
                sequence.append((kind, kind, int(rng.integers(0, rows - APPEND_ROWS))))
                continue
            choices = hot if kind == "hot" else adhoc
            name, sql = choices[seen[kind] % len(choices)]
            seen[kind] += 1
            literal = 100 + len(sequence)
            sequence.append((kind, name, sql.format(lit=literal) if kind == "adhoc" else sql))
    return sequence


@dataclass
class Round:
    setup_s: float
    wall_s: float
    #: (class, statement/template name or "append", seconds) per operation
    #: that succeeded, in completion order.
    samples: List[Tuple[str, str, float]]
    queue_waits: List[float]
    stats: dict
    #: Yardstick factor of the samples taken during this round (1.0 when
    #: the round ran without a yardstick).
    factor: float = 1.0

    def latencies(self, bad=(), kind: Optional[str] = None) -> List[float]:
        """Latencies of one class (default: all), without the operations of
        statements whose verification failed."""
        return [s for k, n, s in self.samples if n not in bad and kind in (None, k)]

    def by_name(self, bad=()) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for _, name, seconds in self.samples:
            if name not in bad:
                out.setdefault(name, []).append(seconds)
        return out


def service_round(
    spec: Spec, tables: Tables, sequence, warmup: int, ops: Ops, *,
    via: str = "service", clients: int = 1, result_cache: int = 0,
    verify_plans: str = "off", check: bool = True, yardstick: Optional[Yardstick] = None,
) -> Round:
    """One round: fresh database (+ service), ``warmup`` untimed operations,
    then the rest of ``sequence`` timed from a closed loop. ``via="direct"``
    sends the same operations to ``Database.sql`` (the reference replay and
    the service-toll base). ``check=False`` skips result digests (rounds
    whose interleaving is not deterministic). A ``yardstick`` is sampled
    every ``EVERY_OPS`` operations; its time is taken out of the round's
    set-up and wall time."""
    gc.collect()
    mark = len(yardstick.samples) if yardstick is not None else 0
    started = time.perf_counter()
    db, _ = build_database(spec, tables, config=EngineConfig(verify_plans=verify_plans))
    service = session = None
    if via == "service":
        service = QueryService(
            db,
            ServiceConfig(max_concurrent=2, result_cache_size=result_cache),
            registry=MetricsRegistry(),
        )
        session = service.session()
    lineitem = tables["lineitem"]
    queue_waits: List[float] = []

    def execute(sql):
        if session is None:
            return db.sql(sql)
        ticket = session.submit(sql, timeout=OP_TIMEOUT_S)
        result = ticket.result(timeout=OP_TIMEOUT_S)
        queue_waits.append(ticket.queue_wait or 0.0)
        return result

    def run(index: int, timed: bool):
        kind, name, payload = sequence[index]
        if kind == "append":
            data = {c: v[payload : payload + APPEND_ROWS] for c, v in lineitem.items()}
            return kind, name, ops.timed(name, lambda: db.insert("lineitem", data), digest=False)
        slot = f"{name}@{index}" if timed else None
        return kind, name, ops.timed(
            name, lambda: execute(payload), slot=slot, digest=check and timed
        )

    def run_all(indices, record) -> float:
        """Run the operations in order; seconds spent in the yardstick."""
        spent = 0.0
        for index in indices:
            if yardstick is not None and index % yardstick.EVERY_OPS == 0:
                spent += yardstick.sample()
            record(run(index, timed=index >= warmup))
        return spent

    try:
        spent = run_all(range(warmup), lambda outcome: None)
        setup_s = time.perf_counter() - started - spent
        samples: List[Tuple[str, str, float]] = []

        def record(outcome):
            if outcome[2] is not None:
                samples.append(outcome)

        gc.collect()
        timed_started = time.perf_counter()
        spent = 0.0
        if clients == 1:
            spent = run_all(range(warmup, len(sequence)), record)
        else:
            _run_clients(clients, range(warmup, len(sequence)), run, record)
        wall_s = time.perf_counter() - timed_started - spent
        stats = {"plan_cache": db.plan_cache.stats()}
        if service is not None:
            stats["service"] = service.stats()["service"]
    finally:
        if service is not None:
            service.shutdown()
    factor = yardstick.factor(mark) if yardstick is not None else 1.0
    return Round(setup_s, wall_s, samples, queue_waits, stats, factor)


def _run_clients(clients: int, indices, run, record) -> None:
    """``clients`` closed-loop threads drawing the next operation index from
    one shared iterator (layer metric ``server.clients2_scaling`` only)."""
    import threading

    lock = threading.Lock()
    pending = iter(indices)

    def client():
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            outcome = run(index, timed=True)
            with lock:
                record(outcome)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def verify_service(spec: Spec, tables: Tables, sequence, warmup: int, ops: Ops) -> None:
    """Replay the sequence on a plain ``Database`` (identically mutated
    catalog, no service) and compare every timed operation's digest. A
    statement's answer only changes when an append lands, so the replay
    computes one reference per (text, appends so far)."""
    db, _ = build_database(spec, tables)
    lineitem = tables["lineitem"]
    appends = 0
    memo: Dict[Tuple[str, int], Tuple] = {}
    for index, (kind, name, payload) in enumerate(sequence):
        if kind == "append":
            db.insert("lineitem", {c: v[payload : payload + APPEND_ROWS] for c, v in lineitem.items()})
            appends += 1
        elif index >= warmup:
            key = (payload, appends)
            if key not in memo:
                memo[key] = result_digest(db.sql(payload).batch)
            ops.verify(f"{name}@{index}", memo[key])


def run_service(spec: Spec, scale: Scale, seed: int, seconds: float, spill_dir: str,
                fault=None) -> dict:
    tables = spec.generate(scale, seed)
    inputs = input_digest(tables, spec.statements)
    sequence = service_sequence(tables, scale.service_warmup, scale.service_ops, seed)
    ops = Ops(fault)
    yardstick = Yardstick()
    rounds: List[Round] = []
    started = time.perf_counter()
    while len(rounds) < scale.min_cycles or (
        len(rounds) < scale.max_cycles and time.perf_counter() - started < seconds
    ):
        rounds.append(
            service_round(spec, tables, sequence, scale.service_warmup, ops, yardstick=yardstick)
        )
    rss = peak_rss_mb()
    verify_service(spec, tables, sequence, scale.service_warmup, ops)

    def round_metrics(r: Round) -> Dict[str, float]:
        """One round's readings against that round's yardstick. A class
        figure is the median over the class's statements of the statement's
        median, so it does not depend on which statement the pooled median
        happens to fall in."""
        by_name = r.by_name(ops.bad)
        medians = {name: statistics.median(v) for name, v in by_name.items()}
        out = {"setup_s": r.setup_s, "throughput_qps": len(r.samples) / r.wall_s}
        for metric, names in (("hot_ms_p50", SERVICE_HOT), ("adhoc_ms_p50", SERVICE_ADHOC),
                              ("append_ms_p50", ("append",))):
            if any(n in medians for n in names):
                out[metric] = _ms(statistics.median(medians[n] for n in names if n in medians))
        if medians:
            out["query_geomean_ms"] = _ms(geomean(list(medians.values())))
        return scaled(out, r.factor)

    per_round = [round_metrics(r) for r in rounds]
    metrics = {"peak_rss_mb": rss}
    for name in per_round[0]:
        metrics[name] = statistics.median(m[name] for m in per_round if name in m)
    # The tail is read over the operations of all rounds together (thirty
    # samples beyond the p99 instead of ten), each against its own round.
    pooled = [seconds * r.factor for r in rounds for seconds in r.latencies(ops.bad)]
    if pooled:
        metrics["stmt_ms_p99"] = _ms(nearest_rank(pooled, 0.99))
    return result_document(ops, inputs, metrics, {
        "rounds": len(rounds),
        "unscaled_round_wall_s": [r.wall_s for r in rounds],
        "unscaled_round_setup_s": [r.setup_s for r in rounds],
        "plan_cache": rounds[0].stats["plan_cache"],
        **yardstick.describe(),
    })


def run_workload(name: str, scale_name: str, seed: int, seconds: float, spill_dir: str,
                 fault=None) -> dict:
    spec, scale = SPECS[name], SCALES[scale_name]
    runner = run_batch if spec.kind == "batch" else run_service
    return runner(spec, scale, seed, seconds, spill_dir, fault)
