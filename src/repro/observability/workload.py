"""Plan-fingerprinted workload profiling.

A *plan fingerprint*
(:meth:`repro.server.cache.PreparedPlan.fingerprint`) is the hash of the
engine, the logical plan's *template key* — its structural
:meth:`~repro.logical.plan.LogicalPlan.key` with literal values dropped —
and the config's translation identity. Two queries that differ only in
literals collide on purpose, so the profiler aggregates by *template*
rather than by SQL text. Statements that never got a plan (parse/bind
errors) fall back to a hash of the normalized SQL text.

:class:`WorkloadStats` keeps one bounded table of per-fingerprint streaming
aggregates: execution count, a latency histogram, and Welford mean/variance
of the per-query max Q-error, split into a *baseline* (the first
observations of the template) and an exponentially-weighted *recent* value.
:meth:`WorkloadStats.drifting_templates` surfaces templates whose recent
Q-error has degraded relative to their baseline — exactly the trigger
signal the ROADMAP's adaptive re-planning item needs: a drifting
fingerprint identifies a plan-cache template whose cardinality model has
gone stale and should be re-optimized.

Memory is bounded: the table is a :class:`~repro.bounded.Lru` of at most
``capacity`` templates; beyond that the least-recently-updated template is
evicted (hot templates survive) and the ``evicted`` counter records the
loss.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..bounded import Lru
from .metrics import Histogram

#: Latency buckets for per-template histograms: log-spaced seconds from
#: 0.1 ms to 100 s (same span as the metrics default, fewer buckets — the
#: table holds many histograms).
TEMPLATE_LATENCY_BUCKETS = (
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 100.0
)

#: How many initial Q-error observations form a template's baseline.
BASELINE_WINDOW = 8

#: EWMA weight of the newest Q-error observation in ``q_recent``.
RECENT_ALPHA = 0.3

#: A template has drifted when its recent EWMA Q-error is this many times
#: its baseline mean — the one threshold behind both the report's
#: ``drifting`` list and the feedback store's replan decision.
DRIFT_THRESHOLD = 2.0

#: Executions before a template can drift: the baseline window is full and
#: the EWMA has moved past it.
DRIFT_MIN_COUNT = BASELINE_WINDOW + 4


class Welford:
    """Streaming mean/variance (Welford's online algorithm)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return self.variance ** 0.5

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
        }


class TemplateStats:
    """Streaming aggregates for one plan fingerprint."""

    __slots__ = (
        "fingerprint", "example_sql", "engine", "count", "errors",
        "latency", "q_stats", "q_baseline", "q_recent", "q_max", "q_last",
        "plan_cache_hits", "spill_bytes", "rows_out", "replanned_at",
    )

    def __init__(self, fingerprint: str, example_sql: str, engine: str):
        self.fingerprint = fingerprint
        #: One representative SQL text (the first seen; truncated upstream).
        self.example_sql = example_sql
        self.engine = engine
        self.count = 0
        self.errors = 0
        self.latency = Histogram(TEMPLATE_LATENCY_BUCKETS)
        #: Welford over every observed per-query max Q-error.
        self.q_stats = Welford()
        #: Mean Q-error of the first :data:`BASELINE_WINDOW` observations —
        #: what the template looked like when its plan was (re)built.
        self.q_baseline = Welford()
        #: EWMA of recent Q-errors (``None`` until first observation).
        self.q_recent: Optional[float] = None
        self.q_max = 0.0
        self.q_last: Optional[float] = None
        self.plan_cache_hits = 0
        self.spill_bytes = 0
        self.rows_out = 0
        #: ``count`` at the feedback store's last drift-triggered replan of
        #: this template (``None``: never); evicted with the template.
        self.replanned_at: Optional[int] = None

    # ------------------------------------------------------------------
    def observe(
        self,
        latency_s: float,
        q_error: Optional[float],
        error: bool = False,
        plan_cache_hit: bool = False,
        spill_bytes: int = 0,
        rows: int = 0,
    ) -> None:
        self.count += 1
        self.errors += int(error)
        self.plan_cache_hits += int(plan_cache_hit)
        self.spill_bytes += spill_bytes
        self.rows_out += rows
        self.latency.observe(latency_s)
        if q_error is not None:
            self.q_stats.add(q_error)
            if self.q_baseline.count < BASELINE_WINDOW:
                self.q_baseline.add(q_error)
            if self.q_recent is None:
                self.q_recent = q_error
            else:
                self.q_recent += RECENT_ALPHA * (q_error - self.q_recent)
            self.q_last = q_error
            if q_error > self.q_max:
                self.q_max = q_error

    # ------------------------------------------------------------------
    def drift_ratio(self) -> Optional[float]:
        """``recent EWMA Q-error / baseline mean Q-error`` (both clamped to
        >= 1, the Q-error floor), or ``None`` without enough observations."""
        if self.q_recent is None or self.q_baseline.count == 0:
            return None
        return max(1.0, self.q_recent) / max(1.0, self.q_baseline.mean)

    def drifting(self) -> bool:
        """Whether the estimates have drifted: at least
        :data:`DRIFT_MIN_COUNT` executions and a ``drift_ratio()`` of at
        least :data:`DRIFT_THRESHOLD`. The report's ``drifting`` list and the
        feedback store's replan decision both ask this."""
        ratio = self.drift_ratio()
        return (
            self.count >= DRIFT_MIN_COUNT
            and ratio is not None
            and ratio >= DRIFT_THRESHOLD
        )

    def to_dict(self) -> dict:
        out = {
            "fingerprint": self.fingerprint,
            "example_sql": self.example_sql,
            "engine": self.engine,
            "count": self.count,
            "errors": self.errors,
            "plan_cache_hits": self.plan_cache_hits,
            "rows_out": self.rows_out,
            "spill_bytes": self.spill_bytes,
            "latency": self.latency.to_dict(),
            "q_error": self.q_stats.to_dict(),
            "q_baseline_mean": self.q_baseline.mean,
            "q_recent": self.q_recent,
            "q_max": self.q_max,
        }
        ratio = self.drift_ratio()
        if ratio is not None:
            out["drift_ratio"] = ratio
        return out


class WorkloadStats:
    """Bounded per-fingerprint aggregate table (the workload profiler)."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._templates = Lru(capacity)

    # ------------------------------------------------------------------
    def observe(
        self,
        fingerprint,
        sql: str,
        engine: str,
        latency_s: float,
        q_error: Optional[float] = None,
        **counts,
    ) -> TemplateStats:
        """Fold one execution into its template (created on first sight);
        ``counts`` are :meth:`TemplateStats.observe`'s keyword fields."""
        entry = self._templates.get_or_put(
            fingerprint, lambda: TemplateStats(fingerprint, sql, engine)
        )
        entry.observe(latency_s, q_error, **counts)
        return entry

    # ------------------------------------------------------------------
    @property
    def evicted(self) -> int:
        """Templates dropped because the table was full (the bound held)."""
        return self._templates.evictions

    def __len__(self) -> int:
        return len(self._templates)

    def get(self, fingerprint: str) -> Optional[TemplateStats]:
        return self._templates.peek(fingerprint)

    def templates(self) -> List[TemplateStats]:
        """All tracked templates, most executed first."""
        return sorted(self._templates.values(), key=lambda t: -t.count)

    def drifting_templates(self) -> List[Tuple[str, TemplateStats]]:
        """Templates whose estimates drifted (:meth:`TemplateStats.drifting`),
        worst first: each names a plan-cache template whose cardinality
        feedback says the plan should be re-costed.
        """
        out = [
            (entry.fingerprint, entry)
            for entry in self.templates()
            if entry.drifting()
        ]
        out.sort(key=lambda pair: -(pair[1].drift_ratio() or 0.0))
        return out

    def snapshot(self, top: Optional[int] = None) -> dict:
        entries = self.templates()
        if top is not None:
            entries = entries[:top]
        return {
            "capacity": self.capacity,
            "tracked": len(self),
            "evicted": self.evicted,
            "templates": [entry.to_dict() for entry in entries],
        }

    def reset(self) -> None:
        self._templates = Lru(self.capacity)
