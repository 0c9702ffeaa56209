"""Metrics primitives, per-operator stats, and the per-query profile.

Two scopes:

- **process scope** — :data:`GLOBAL_METRICS`, a :class:`MetricsRegistry`
  every engine run feeds a handful of cheap per-query increments into
  (queries, rows, work seconds, spill bytes). Always on; the cost is a few
  dict lookups per *query*, never per row.
- **query scope** — :class:`QueryProfile`, created only when
  ``EngineConfig(collect_metrics=True)``. Holds one :class:`OperatorStats`
  per executed LOLEPOP, the optimizer-rewrite log of every DAG, and free-
  form counters operators add (e.g. pre-aggregation partial rows). The
  default path pays exactly one ``profile is None`` check per DAG node.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from .provenance import RewriteEvent, rewrite_events_to_dicts

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GLOBAL_METRICS",
    "OperatorStats",
    "QueryProfile",
]


class Counter:
    """A monotonically increasing value.

    Thread-safe: queries complete concurrently under the service layer, and
    ``value += amount`` is a load/add/store sequence the interpreter may
    interleave between threads — so every increment takes the lock.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (last write wins).

    ``set`` is a single attribute store (atomic under the GIL); ``add`` is a
    read-modify-write and therefore locked.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


#: Default histogram bounds: log-spaced seconds from 0.1 ms to 100 s.
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0
)


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets, like Prometheus)."""

    __slots__ = ("bounds", "counts", "total", "sum", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        #: counts[i] = observations <= bounds[i]; counts[-1] = +Inf bucket.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # total/sum/counts must move together: concurrent observers would
        # otherwise lose increments between the load and the store.
        with self._lock:
            self.total += 1
            self.sum += value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile with linear interpolation inside the
        bucket holding the q-th observation (Prometheus
        ``histogram_quantile`` style).

        The previous implementation returned the bucket's **upper bound**,
        which biased every reported percentile high by up to a full bucket
        width — with log-spaced bounds, nearly an order of magnitude.
        Interpolating by the observation's rank within the bucket assumes a
        uniform in-bucket distribution; the residual error is bounded by
        the bucket width but is unbiased, so histogram percentiles now
        track the exact raw-sample ``p50/p95/p99`` that
        ``benchmarks/bench_server_throughput.py`` computes instead of
        sitting systematically above them. Observations in the overflow
        bucket still report the largest bound (no upper edge to
        interpolate toward); the first bucket interpolates from zero.
        """
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            if seen + count >= target and count > 0:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                position = (target - seen) / count
                return lower + position * (upper - lower)
            seen += count
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.bounds, self.counts)
            },
            "overflow": self.counts[-1],
            # Within-bucket interpolated approximations (see quantile()),
            # labeled "p50"/"p95"/"p99" to line up with the exact
            # raw-sample percentiles bench_server_throughput reports.
            "quantiles": {
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            },
        }


#: The primitives a registry hands out.
Metric = Union[Counter, Gauge, Histogram]
_M = TypeVar("_M", bound=Metric)


class MetricsRegistry:
    """Named counters / gauges / histograms behind one creation lock."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, name: str, factory: Callable[[], _M], kind: Type[_M]
    ) -> _M:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(bounds), Histogram)

    def snapshot(self) -> Dict[str, object]:
        """All metric values as plain JSON-serializable data."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.to_dict()
            else:
                out[name] = metric.value
        return out

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: The process-wide registry the engines feed per-query aggregates into.
GLOBAL_METRICS = MetricsRegistry()


# ----------------------------------------------------------------------
# Per-query profiling
# ----------------------------------------------------------------------


class OperatorStats:
    """Counters attached to one executed LOLEPOP instance."""

    __slots__ = (
        "rows_in", "rows_out", "batches_in", "batches_out", "wall_time",
        "peak_buffer_bytes", "spill_bytes_written", "spill_bytes_read",
        "buffer_reuse_hits", "sort_elisions", "bytes_materialized",
        "peak_partition_bytes", "extra",
    )

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        self.batches_in = 0
        self.batches_out = 0
        self.wall_time = 0.0
        self.peak_buffer_bytes = 0
        self.spill_bytes_written = 0
        self.spill_bytes_read = 0
        self.buffer_reuse_hits = 0
        self.sort_elisions = 0
        #: Resource ledger: total buffer bytes this operator emitted
        #: (cumulative across outputs, unlike the max-tracked peak) and the
        #: largest single partition it produced — the unit of per-worker
        #: memory, so a high value here is the memory-side face of skew.
        self.bytes_materialized = 0
        self.peak_partition_bytes = 0
        #: Operator-specific details (sort mode, merge rounds, ...).
        self.extra: Dict[str, object] = {}

    # -- accumulation ---------------------------------------------------
    def add_input(self, value: object) -> None:
        rows, batches, _, _ = _shape_of(value)
        self.rows_in += rows
        self.batches_in += batches

    def add_output(self, value: object) -> None:
        rows, batches, buffer_bytes, partition_peak = _shape_of(value)
        self.rows_out += rows
        self.batches_out += batches
        self.bytes_materialized += buffer_bytes
        if buffer_bytes > self.peak_buffer_bytes:
            self.peak_buffer_bytes = buffer_bytes
        if partition_peak > self.peak_partition_bytes:
            self.peak_partition_bytes = partition_peak

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "batches_in": self.batches_in,
            "batches_out": self.batches_out,
            "wall_time_s": self.wall_time,
            "peak_buffer_bytes": self.peak_buffer_bytes,
            "spill_bytes_written": self.spill_bytes_written,
            "spill_bytes_read": self.spill_bytes_read,
            "buffer_reuse_hits": self.buffer_reuse_hits,
            "sort_elisions": self.sort_elisions,
            "bytes_materialized": self.bytes_materialized,
            "peak_partition_bytes": self.peak_partition_bytes,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


def _shape_of(value: object) -> Tuple[int, int, int, int]:
    """(rows, batches, buffer bytes, largest partition bytes) of an
    operator input/output value."""
    from ..storage.buffer import TupleBuffer

    if isinstance(value, TupleBuffer):
        partition_peak = max(
            (p.approx_bytes() for p in value.partitions), default=0
        )
        return (
            value.num_rows, value.num_partitions,
            value.approx_bytes(), partition_peak,
        )
    if isinstance(value, (list, tuple)):
        return sum(len(b) for b in value), len(value), 0, 0
    return 0, 0, 0, 0


class QueryProfile:
    """Everything observed about one query execution.

    Populated by :meth:`Dag.execute <repro.lolepop.base.Dag.execute>` (per-
    operator stats), the translator/optimizer (rewrite log), and the engine
    (timings, spill totals). Serializes to a stable JSON shape consumed by
    the shell's ``.profile json`` and the benchmark ``--profile-dir`` flag.
    """

    def __init__(self, query: Optional[str] = None) -> None:
        self.query = query
        self.engine = "lolepop"
        self.serial_time = 0.0
        self.makespan = 0.0
        self.num_threads = 1
        self.execution_mode = "simulated"
        #: Query-level free-form counters (thread-safe: written only on the
        #: submitting thread, after region barriers).
        self.counters: Dict[str, float] = {}
        #: Optimizer / translator rewrite log across all executed DAGs.
        self.rewrites: List[RewriteEvent] = []
        #: Executed DAGs in construction order (nodes carry their stats).
        #: ``Any`` (not ``object``): the DAG type lives in ``repro.lolepop``
        #: and importing it here would cycle.
        self.dags: List[Any] = []
        #: One entry per executed join, in execution order: what its
        #: :class:`~repro.relational.hash_join.HashJoinTable` chose plus the
        #: probe / matched row counts (appended on the submitting thread).
        self.joins: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def add_dag(self, dag: Any) -> None:
        self.dags.append(dag)
        self.rewrites.extend(getattr(dag, "rewrites", ()))

    # ------------------------------------------------------------------
    def operator_stats(self) -> List[Tuple[int, int, str, str, OperatorStats]]:
        """Flat list of (dag index, node index, name, describe, stats) over
        every executed DAG node that collected stats."""
        out: List[Tuple[int, int, str, str, OperatorStats]] = []
        for dag_index, dag in enumerate(self.dags):
            for node_index, node in enumerate(dag.topological_order()):
                stats = getattr(node, "stats", None)
                if stats is not None:
                    out.append(
                        (dag_index, node_index, node.name(), node.describe(), stats)
                    )
        return out

    def total_operator_time(self) -> float:
        return sum(entry[4].wall_time for entry in self.operator_stats())

    # ------------------------------------------------------------------
    def to_dict(self, trace: Optional[Any] = None) -> Dict[str, object]:
        """JSON-serializable profile; pass the query's ``ExecutionTrace`` to
        embed Chrome trace events."""
        payload: Dict[str, object] = {
            "query": self.query,
            "engine": self.engine,
            "execution_mode": self.execution_mode,
            "num_threads": self.num_threads,
            "serial_time_s": self.serial_time,
            "makespan_s": self.makespan,
            "counters": dict(self.counters),
            "joins": [dict(join) for join in self.joins],
            "rewrites": [str(entry) for entry in self.rewrites],
            "rewrite_events": rewrite_events_to_dicts(self.rewrites),
            "dags": [
                {
                    "index": dag_index,
                    "operators": [
                        {
                            "id": node_index,
                            "name": name,
                            "describe": describe,
                            **stats.to_dict(),
                        }
                        for d, node_index, name, describe, stats
                        in self.operator_stats()
                        if d == dag_index
                    ],
                }
                for dag_index in range(len(self.dags))
            ],
        }
        if trace is not None:
            from .chrome import chrome_trace_events

            payload["trace_events"] = chrome_trace_events(trace)
        return payload
