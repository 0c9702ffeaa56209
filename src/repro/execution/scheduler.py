"""Simulated morsel-driven scheduler.

Work items execute *serially* (their real wall time is measured) and are
then placed onto T virtual worker threads by greedy list scheduling. Each
``run_region`` call is one parallel region with a barrier at both ends —
the morsel-driven execution model, where a pipeline's morsels run freely in
parallel but pipelines themselves are ordered by their data dependencies.

Splittable items model intra-item parallelism: the paper's SORT is a
"morsel-driven variant of BlockQuicksort", i.e. sorting one large hash
partition is itself parallel work. A splittable item of measured duration
``d`` is scheduled as up to T sub-items of duration ``d·(1+overhead)/s``.
Monolithic baselines schedule the same measured durations with
``splittable=False``, which reproduces HyPer's single-threaded per-partition
sorting collapse (Table 3, queries 7/12/15).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from ..analysis.sanitizer import SAN as _SAN
from .trace import ExecutionTrace

#: Minimum simulated duration of one split chunk (seconds). Splitting below
#: this granularity would model morsels smaller than scheduling overhead.
SPLIT_QUANTUM = 0.0005

#: Relative overhead added when an item is split (synchronization, cache
#: effects of parallel runs + merge).
SPLIT_OVERHEAD = 0.10


class SplittableTask:
    """A work item that can cooperatively subdivide into independent
    sub-thunks — real intra-item parallelism for the parallel scheduler.

    The simulated scheduler treats these like any other item: the region's
    ``fn`` runs the whole task (call :meth:`run`). The parallel scheduler,
    when a region is marked ``splittable`` and has fewer items than worker
    threads, asks :meth:`split` for at most ``max_parts`` independent
    sub-thunks, executes them concurrently, and calls :meth:`finalize` with
    their results (in sub-thunk order) on the submitting thread after the
    region barrier. ``split`` may return ``None`` to decline (the item then
    runs whole via ``fn``); whatever it returns, the final result must be
    identical to :meth:`run`'s — splitting is an execution strategy, never
    a semantic change.
    """

    def run(self):
        """Execute the whole item (the unsplit fallback)."""
        raise NotImplementedError

    def split(self, max_parts: int) -> Optional[List[Callable[[], object]]]:
        """Return up to ``max_parts`` independent sub-thunks, or ``None``
        to run unsplit."""
        return None

    def finalize(self, sub_results: List) -> object:
        """Combine sub-thunk results; runs after the barrier, serially."""
        raise NotImplementedError


class RegionScheduler:
    """What every scheduler shares: per-query state and the region
    bracket. ``run_region`` is one parallel region with a barrier at both
    ends — sanitizer epoch, cancellation check on entry, then the
    subclass's :meth:`_execute_items`."""

    def __init__(
        self,
        num_threads: int,
        trace: Optional[ExecutionTrace] = None,
        cancellation=None,
    ):
        if num_threads < 1:
            raise ValueError("need at least one thread")
        self.num_threads = num_threads
        self.trace = trace
        #: Optional :class:`~repro.execution.cancellation.CancellationToken`
        #: checked when entering every region barrier.
        self.cancellation = cancellation
        #: Total measured per-item work (the "1 thread" time).
        self.serial_time = 0.0

    def run_region(
        self,
        operator: str,
        phase: str,
        items: Sequence,
        fn: Callable,
        splittable: bool = False,
    ) -> List:
        """Execute ``fn(item)`` for every item as one parallel region.
        Returns results in item order."""
        sanitizer = _SAN.active
        if sanitizer is not None:  # sanitizer epoch brackets the barrier
            sanitizer.begin_region(operator, phase)
        try:
            if self.cancellation is not None:
                self.cancellation.check()
            return self._execute_items(operator, phase, items, fn, splittable)
        finally:
            if sanitizer is not None:
                sanitizer.end_region()

    def _execute_items(
        self,
        operator: str,
        phase: str,
        items: Sequence,
        fn: Callable,
        splittable: bool,
    ) -> List:
        raise NotImplementedError


class SimulatedScheduler(RegionScheduler):
    """Greedy list scheduler over T virtual threads with region barriers."""

    def __init__(
        self,
        num_threads: int,
        trace: Optional[ExecutionTrace] = None,
        cancellation=None,
    ):
        super().__init__(num_threads, trace, cancellation)
        #: Simulated clock per virtual thread.
        self._clocks = [0.0] * num_threads

    # ------------------------------------------------------------------
    @property
    def sim_time(self) -> float:
        """Current simulated wall clock (max over threads)."""
        return max(self._clocks)

    # ------------------------------------------------------------------
    def _execute_items(
        self,
        operator: str,
        phase: str,
        items: Sequence,
        fn: Callable,
        splittable: bool,
    ) -> List:
        """Run the items serially, measure, and schedule the measured
        durations as one region."""
        results = []
        durations = []
        for item in items:
            start = time.perf_counter()
            results.append(fn(item))
            durations.append(time.perf_counter() - start)
        self.account(operator, phase, durations, splittable)
        return results

    def account(
        self,
        operator: str,
        phase: str,
        durations: Sequence[float],
        splittable: bool = False,
    ) -> None:
        """Schedule externally-measured durations as one region."""
        if self.cancellation is not None:
            self.cancellation.check()
        self.serial_time += sum(durations)
        barrier = self.sim_time
        self._clocks = [barrier] * self.num_threads
        tasks: List[float] = []
        for duration in durations:
            tasks.extend(self._split(duration, splittable))
        # Longest-processing-time-first greedy: near-optimal makespan and
        # deterministic.
        units = []
        for duration in sorted(tasks, reverse=True):
            thread = min(range(self.num_threads), key=lambda t: self._clocks[t])
            start = self._clocks[thread]
            self._clocks[thread] = start + duration
            if self.trace is not None:
                units.append((thread, start, start + duration))
        if units:
            self.trace.add_region(
                operator, phase, barrier, self.sim_time, units, len(durations)
            )

    def _split(self, duration: float, splittable: bool) -> List[float]:
        if not splittable or self.num_threads == 1:
            return [duration]
        pieces = min(self.num_threads, max(1, int(duration / SPLIT_QUANTUM)))
        if pieces == 1:
            return [duration]
        chunk = duration * (1.0 + SPLIT_OVERHEAD) / pieces
        return [chunk] * pieces
