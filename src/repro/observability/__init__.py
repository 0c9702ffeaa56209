"""Engine-wide observability: metrics, query profiles,
EXPLAIN ANALYZE rendering, and Chrome trace export.

The paper's argument (Figure 8, §6) is that decomposing aggregation into
LOLEPOPs exposes *where time goes*; this package is the machinery that
makes that visible at every layer:

- :class:`MetricsRegistry` — named counters / gauges / histograms; each
  query service owns one (``QueryService.stats()``, the shell's
  ``.metrics``).
- :func:`profile_dict` — one traced query's profile JSON: the ``node``
  spans of its span tree (rows, batches, wall time, bytes written, spilling,
  extras), its rewrite log, join lines and spill counters; a run under
  ``EngineConfig(collect_trace=True)`` is the profile.
- :func:`chrome_trace_events` — export a statement's span tree as Chrome
  ``trace_event`` JSON loadable in ``chrome://tracing`` / Perfetto.
- :func:`render_analyze` — the ``EXPLAIN ANALYZE`` DAG annotation (actual
  rows vs. cardinality estimates, per-op time share, max Q-error).
- :class:`Telemetry` / ``GLOBAL_TELEMETRY`` — always-on *service*
  telemetry: the :class:`FlightRecorder` event ring, the slow-query log,
  the plan-fingerprinted :class:`WorkloadStats` profiler with Q-error
  drift tracking (shell ``.slowlog`` / ``.fingerprints``;
  ``tools/telemetry_report.py``).
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    profile_dict,
)
from .chrome import chrome_trace_events, validate_trace_events, write_chrome_trace
from .analyze import estimate_dag_rows, render_analyze
from .events import EVENT_KINDS, FlightRecorder, TelemetryEvent
from .workload import TemplateStats, WorkloadStats
from .telemetry import (
    GLOBAL_TELEMETRY,
    QueryRecord,
    Telemetry,
    TelemetryConfig,
    render_report,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "profile_dict",
    "chrome_trace_events",
    "validate_trace_events",
    "write_chrome_trace",
    "estimate_dag_rows",
    "render_analyze",
    "EVENT_KINDS",
    "FlightRecorder",
    "TelemetryEvent",
    "TemplateStats",
    "WorkloadStats",
    "GLOBAL_TELEMETRY",
    "QueryRecord",
    "Telemetry",
    "TelemetryConfig",
    "render_report",
]
