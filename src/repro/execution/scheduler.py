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

A *chain* region (``steps`` given) runs one item per hash partition through
several operators (SORT → WINDOW → ... → SCAN, see
:func:`repro.lolepop.base.run_chain`); its items report when each step ran.
Each step is scheduled as its own unit, splittable as its operator is, in
the shorter of two legal schedules of the same units: step by step with a
barrier between steps (what one region per operator gives), or item by item
with each step starting when the item's previous one ended.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.sanitizer import SAN as _SAN
from .trace import ExecutionTrace

#: Minimum simulated duration of one split chunk (seconds). Splitting below
#: this granularity would model morsels smaller than scheduling overhead.
SPLIT_QUANTUM = 0.0005

#: Relative overhead added when an item is split (synchronization, cache
#: effects of parallel runs + merge).
SPLIT_OVERHEAD = 0.10

#: One step of a chain region: its operator's name and whether the
#: simulated schedule may split the step's duration.
Step = Tuple[str, bool]
#: A chain item as the simulated scheduler places it: per step it ran, the
#: step's index and the durations of its pieces.
_StepPieces = List[Tuple[int, List[float]]]
#: Thread clocks after a schedule, and its ``(thread, start, end, step)``
#: units.
_Schedule = Tuple[List[float], List[Tuple[int, float, float, str]]]


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
        steps: Optional[Sequence[Step]] = None,
    ) -> List:
        """Execute ``fn(item)`` for every item as one parallel region.
        Returns results in item order.

        With ``steps`` — ``(operator, splittable)`` per step of a chain
        region — ``fn`` returns ``(value, marks)``, ``marks`` being the
        ``(step index, start, end)`` ``time.perf_counter`` stamps of the
        steps the item ran; each is scheduled and traced as its own unit,
        named by its step's operator."""
        sanitizer = _SAN.active
        if sanitizer is not None:  # sanitizer epoch brackets the barrier
            sanitizer.begin_region(operator, phase)
        try:
            if self.cancellation is not None:
                self.cancellation.check()
            return self._execute_items(operator, phase, items, fn, splittable, steps)
        finally:
            if sanitizer is not None:
                sanitizer.end_region()

    def checkpoint(self) -> None:
        """Raise :class:`~repro.errors.QueryCancelled` if the query was
        cancelled — what a chain item checks before each of its steps, the
        way ``run_region`` checks on entry."""
        if self.cancellation is not None:
            self.cancellation.check()

    def _execute_items(
        self,
        operator: str,
        phase: str,
        items: Sequence,
        fn: Callable,
        splittable: bool,
        steps: Optional[Sequence[Step]],
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
        steps: Optional[Sequence[Step]],
    ) -> List:
        """Run the items serially, measure, and schedule the measured
        durations as one region."""
        if steps is not None:
            results = [fn(item) for item in items]
            self._account_chain(operator, phase, [marks for _, marks in results], steps)
            return results
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

    def _account_chain(
        self,
        operator: str,
        phase: str,
        marks: Sequence[Sequence[Tuple[int, float, float]]],
        steps: Sequence[Step],
    ) -> None:
        """Schedule a chain region's measured steps (see the module
        docstring): ``marks`` holds each item's ``(step, start, end)``."""
        self.serial_time += sum(end - start for item in marks for _, start, end in item)
        barrier = self.sim_time
        if self.num_threads == 1:
            # One thread runs the units back to back, in any schedule.
            clock, units = barrier, []
            for item in marks:
                for step, start, end in item:
                    if self.trace is not None:
                        units.append((0, clock, clock + end - start, steps[step][0]))
                    clock += end - start
            self._clocks = [clock]
        else:
            chains = [
                [(step, self._split(end - start, steps[step][1])) for step, start, end in item]
                for item in marks
            ]
            self._clocks, units = min(
                self._place_by_item(chains, steps, barrier),
                self._place_by_step(chains, steps, barrier),
                key=lambda schedule: max(schedule[0]),
            )
        if units and self.trace is not None:
            self.trace.add_region(
                operator, phase, barrier, self.sim_time, units, len(marks)
            )

    def _place(self, clocks: List[float], ready: float, duration: float) -> Tuple[int, float]:
        """Put one unit on the thread where it can start first, no earlier
        than ``ready``; returns ``(thread, start)``."""
        thread = min(range(self.num_threads), key=lambda t: (max(clocks[t], ready), t))
        start = max(clocks[thread], ready)
        clocks[thread] = start + duration
        return thread, start

    def _place_by_step(
        self, chains: Sequence[_StepPieces], steps: Sequence[Step], barrier: float
    ) -> _Schedule:
        """One barrier per step, longest unit first: what a region per
        operator schedules."""
        clocks = [barrier] * self.num_threads
        units = []
        for index, (name, _) in enumerate(steps):
            pieces = [
                piece for chain in chains for step, parts in chain if step == index
                for piece in parts
            ]
            for duration in sorted(pieces, reverse=True):
                thread, start = self._place(clocks, barrier, duration)
                units.append((thread, start, start + duration, name))
            barrier = max(clocks)
            clocks = [barrier] * self.num_threads
        return clocks, units

    def _place_by_item(
        self, chains: Sequence[_StepPieces], steps: Sequence[Step], barrier: float
    ) -> _Schedule:
        """Longest item first, each step as soon as its item's previous
        step (all of its pieces) ended."""
        clocks = [barrier] * self.num_threads
        units = []
        for chain in sorted(chains, key=lambda c: -sum(sum(parts) for _, parts in c)):
            ready = barrier
            for step, parts in chain:
                ends = []
                for duration in parts:
                    thread, start = self._place(clocks, ready, duration)
                    units.append((thread, start, start + duration, steps[step][0]))
                    ends.append(start + duration)
                ready = max(ends)
        return clocks, units

    def _split(self, duration: float, splittable: bool) -> List[float]:
        if not splittable or self.num_threads == 1:
            return [duration]
        pieces = min(self.num_threads, max(1, int(duration / SPLIT_QUANTUM)))
        if pieces == 1:
            return [duration]
        chunk = duration * (1.0 + SPLIT_OVERHEAD) / pieces
        return [chunk] * pieces
