"""Real multi-threaded morsel scheduler.

:class:`ParallelScheduler` shares the ``run_region`` bracket of
:class:`~repro.execution.scheduler.RegionScheduler` with
:class:`~repro.execution.scheduler.SimulatedScheduler`, but actually executes
work items on a :class:`concurrent.futures.ThreadPoolExecutor`. The numpy
kernels the operators are built from (sorting, hashing, gathers, reductions)
release the GIL on non-object dtypes, so independent partitions genuinely
overlap on multi-core hardware; pure-Python glue still serializes.

Execution contract (what the differential/property test suites lock down):

- every ``run_region`` call is a barrier — no item of a later region starts
  before all items of the current region finished;
- results are returned in item order, and every work function must be
  self-contained: it may mutate only state that no other item of the region
  touches (disjoint partitions, pre-allocated slots), never shared buffers
  in submission order;
- an exception raised by a worker propagates to the caller after the
  barrier, carrying the worker's original traceback;
- every item runs whole on one worker — a chain region's item
  (:func:`repro.lolepop.base.run_chain`) every step of its partition, any
  other item its region's one step: parallel mode is a determinism
  harness, not a speed feature (docs/architecture.md §4). The ``(step,
  start, end)`` marks an item returns become the region's item spans.

Timing: ``serial_time`` sums the measured per-item durations (the
"1 thread" work, same meaning as in the simulated scheduler), while
``sim_time`` is the *measured* wall-clock sum of region spans — what the
simulated scheduler predicts, this one observes. Trace records use real
per-worker wall-clock spans, re-based so regions abut (barrier semantics),
which keeps Figure-8-style Gantt rendering meaningful for both modes.

Worker pools are shared per thread count across queries (thread spawn is
not charged to any query); per-query state lives on the scheduler.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from .scheduler import RegionScheduler, Step
from .trace import ExecutionTrace

_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(num_threads: int) -> ThreadPoolExecutor:
    """The process-wide worker pool for ``num_threads`` workers."""
    with _POOLS_LOCK:
        pool = _POOLS.get(num_threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=num_threads,
                thread_name_prefix=f"repro-worker{num_threads}",
            )
            _POOLS[num_threads] = pool
        return pool


class ParallelScheduler(RegionScheduler):
    """Morsel-driven execution on a real thread pool with region barriers."""

    def __init__(
        self,
        num_threads: int,
        trace: Optional[ExecutionTrace] = None,
        cancellation=None,
    ):
        super().__init__(num_threads, trace, cancellation)
        #: Measured wall-clock time spent inside regions (barrier to
        #: barrier); the parallel analogue of the simulated makespan.
        self._elapsed = 0.0
        self._pool = shared_pool(num_threads)
        #: OS thread ident -> dense worker index for trace records.
        self._worker_ids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def sim_time(self) -> float:
        """Measured parallel wall clock (sum of region spans). Named for
        API parity with the simulated scheduler."""
        return self._elapsed

    # ------------------------------------------------------------------
    def _execute_items(
        self,
        operator: str,
        phase: str,
        items: Sequence,
        fn: Callable,
        steps: Sequence[Step],
    ) -> List:
        """Run the items on the worker pool and wait for all of them."""
        items = list(items)
        if not items:
            return []
        region_start = time.perf_counter()
        futures: List[Future] = [self._pool.submit(_on_worker, fn, item) for item in items]

        # Barrier: wait for every item, even past a failure, so no work of
        # this region can leak into the next one.
        outcomes: List = []
        error: Optional[BaseException] = None
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as exc:  # re-raised after the barrier
                if error is None:
                    error = exc
        if error is not None:
            self._elapsed += time.perf_counter() - region_start
            # The exception object carries the worker's traceback
            # (concurrent.futures preserves __traceback__).
            raise error

        self.serial_time += sum(
            end - start for (_, marks), _ in outcomes for _, start, end in marks
        )
        base = self._elapsed
        self._elapsed += time.perf_counter() - region_start
        if self.trace is not None:
            # Spans are written here — on the submitting thread, after the
            # barrier, so no locking is needed anywhere — from the marks each
            # item returned, re-based onto the scheduler's clock.
            offset = base - region_start
            workers = self._worker_ids
            units = [
                (
                    workers.setdefault(ident, len(workers)),
                    start + offset, end + offset, steps[step][0], index,
                )
                for index, ((_, marks), ident) in enumerate(outcomes)
                for step, start, end in marks
            ]
            self.trace.add_region(operator, phase, base, self._elapsed, units, len(items))
        return [result for result, _ in outcomes]


def _on_worker(fn: Callable, item):
    """Worker wrapper: ``fn(item)`` and the ident of the thread it ran on."""
    return fn(item), threading.get_ident()
