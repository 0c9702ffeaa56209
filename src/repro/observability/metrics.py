"""Metrics primitives and the per-query profile.

Two scopes:

- **service scope** — a :class:`MetricsRegistry` of named counters, gauges
  and histograms. Each :class:`~repro.server.service.QueryService` owns one
  and is its only writer (the ``service.*`` admission, cache and latency
  numbers); there is no process-wide registry.
- **query scope** — a traced run's
  :class:`~repro.lolepop.engine.QueryResult` *is* the profile: the ``node``
  spans of its span tree (one per executed LOLEPOP, each DAG node points at
  its own), its rewrite log, join lines and spill counters.
  :func:`profile_dict` serializes it; nothing here holds a number of its
  own.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from ..lolepop.base import NODE_COUNTERS, Lolepop

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "executed_nodes",
    "profile_dict",
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


# ----------------------------------------------------------------------
# Per-query profile: views of a traced QueryResult
# ----------------------------------------------------------------------


def executed_nodes(dags: Sequence[Any]) -> List[Tuple[int, int, Any]]:
    """Flat list of (dag index, node index, node) over every DAG node that
    executed under ``collect_trace`` — each carries its ``node`` span as
    ``node.span``. ``Any``: the DAG type lives in ``repro.lolepop``."""
    return [
        (dag_index, node_index, node)
        for dag_index, dag in enumerate(dags)
        for node_index, node in enumerate(dag.topological_order())
        if node.span is not None
    ]


def profile_dict(result: Any) -> Dict[str, object]:
    """The JSON profile of a traced LOLEPOP run — the shell's ``.profile
    json``, ``tools/plan_diff.py`` and the benchmark ``--profile-dir`` read
    it: run attributes, the spill counters as ``spill.*``, join lines,
    rewrite log, one entry per executed operator and the Chrome trace
    events."""
    from .chrome import chrome_trace_events

    dags: List[Dict[str, Any]] = [
        {"index": index, "operators": []} for index in range(len(result.dags))
    ]
    for dag_index, node_index, node in executed_nodes(result.dags):
        dags[dag_index]["operators"].append(
            {
                "id": node_index,
                "name": node.name(),
                "describe": node.describe(),
                **operator_dict(node),
            }
        )
    return {
        "query": result.query,
        "engine": "lolepop",
        "execution_mode": result.config.execution_mode,
        "num_threads": result.config.num_threads,
        "serial_time_s": result.serial_time,
        "makespan_s": result.simulated_time,
        "counters": {
            f"spill.{key}": float(value) for key, value in result.spill.items() if value
        },
        "joins": [dict(join) for join in result.joins],
        "rewrites": [event.to_dict() for event in result.rewrites],
        "dags": dags,
        "trace_events": chrome_trace_events(result.trace),
    }


def operator_dict(node: Lolepop) -> Dict[str, object]:
    """The serialized counters of one executed node. ``rows_in`` /
    ``batches_in`` are what its inputs output; ``wall_time_s`` is the whole
    span (a SOURCE's includes the nested region it ran)."""
    span = node.span
    assert span is not None, f"{node.name()} did not execute under collect_trace"
    attrs = span.attrs
    inputs = [dep.span.attrs for dep in node.inputs if dep.span is not None]
    out: Dict[str, object] = {
        "rows_in": sum(stats["rows_out"] for stats in inputs),
        "rows_out": attrs["rows_out"],
        "batches_in": sum(stats["batches_out"] for stats in inputs),
        "batches_out": attrs["batches_out"],
        "wall_time_s": span.duration,
    }
    out.update((key, attrs[key]) for key in NODE_COUNTERS[2:])
    if attrs["extra"]:
        out["extra"] = dict(attrs["extra"])
    return out
