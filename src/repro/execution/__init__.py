"""Execution substrate: morsel scheduling, traces, engine configuration.

Two execution modes share one barrier API (``run_region``) and one region
shape: every region is a chain of one or more steps, and each work item
reports when each of its steps ran
(:class:`~repro.execution.scheduler.RegionScheduler`):

- **simulated** (default): every work item executes serially and is timed;
  the :class:`~repro.execution.scheduler.SimulatedScheduler` list-schedules
  the measured steps onto T virtual workers with pipeline barriers
  (DESIGN.md §4). The resulting makespan is the simulated parallel wall
  time, and the per-thread intervals form the execution traces of Figure 8.
- **parallel**: the :class:`~repro.execution.parallel.ParallelScheduler`
  runs the same work items, each whole, on a real thread pool. The numpy
  kernels release the GIL, so independent partitions genuinely overlap on
  multi-core hardware; traces record measured per-worker wall-clock spans.

``EngineConfig(execution_mode=...)`` selects the mode; see
docs/architecture.md ("Execution modes") for when the simulated makespan
and the measured parallel time should agree.
"""

from .scheduler import SimulatedScheduler
from .parallel import ParallelScheduler
from .trace import ExecutionTrace, Span
from .context import EXECUTION_MODES, EngineConfig, ExecutionContext
from .cancellation import CancellationToken

__all__ = [
    "CancellationToken",
    "SimulatedScheduler",
    "ParallelScheduler",
    "ExecutionTrace",
    "Span",
    "EXECUTION_MODES",
    "EngineConfig",
    "ExecutionContext",
]
