"""Simulated morsel-driven scheduler.

Work items execute *serially* (their real wall time is measured) and are
then placed onto T virtual worker threads by greedy list scheduling. Each
``run_region`` call is one parallel region with a barrier at both ends —
the morsel-driven execution model, where a pipeline's morsels run freely in
parallel but pipelines themselves are ordered by their data dependencies.

Every region is a chain of one or more steps. A *chain* region runs one
item per hash partition through several operators (SORT → WINDOW → ... →
SCAN, see :func:`repro.lolepop.base.run_chain`); any other region is the
one step of its operator. Items report when each step ran, and each step is
scheduled as its own unit in the shorter of two legal schedules of the same
units: step by step with a barrier between steps (what one region per
operator gives), or item by item with each step starting when the item's
previous one ended. With one step both are longest-processing-time-first
list scheduling.

Splittable steps model intra-item parallelism: the paper's SORT is a
"morsel-driven variant of BlockQuicksort", i.e. sorting one large hash
partition is itself parallel work. A splittable step of measured duration
``d`` is scheduled as up to T pieces of duration ``d·(1+overhead)/s``.
Only a chain region's steps are splittable (their operators say so); a
one-step region never is. Monolithic baselines run every region as one
step, which reproduces HyPer's single-threaded per-partition sorting
collapse (Table 3, queries 7/12/15).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from .trace import ExecutionTrace

#: Minimum simulated duration of one split chunk (seconds). Splitting below
#: this granularity would model morsels smaller than scheduling overhead.
SPLIT_QUANTUM = 0.0005

#: Relative overhead added when an item is split (synchronization, cache
#: effects of parallel runs + merge).
SPLIT_OVERHEAD = 0.10

#: One step of a region: its operator's name and whether the simulated
#: schedule may split the step's duration.
Step = Tuple[str, bool]
#: An item as the simulated scheduler places it: its index, and per step it
#: ran, the step's index and the durations of its pieces.
_StepPieces = Tuple[int, List[Tuple[int, List[float]]]]
#: Thread clocks after a schedule, and its ``(thread, start, end, step,
#: item)`` units.
_Schedule = Tuple[List[float], List[Tuple[int, float, float, str, int]]]


class RegionScheduler:
    """What every scheduler shares: per-query state and the region
    bracket. ``run_region`` is one parallel region with a barrier at both
    ends — a cancellation check on entry, then the subclass's
    :meth:`_execute_items`."""

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
        steps: Optional[Sequence[Step]] = None,
    ) -> List:
        """Execute ``fn(item)`` for every item as one parallel region.
        Returns results in item order.

        With ``steps`` — ``(operator, splittable)`` per step of a chain
        region — ``fn`` returns ``(value, marks)``, ``marks`` being the
        ``(step index, start, end)`` ``time.perf_counter`` stamps of the
        steps the item ran; each is scheduled and traced as its own unit,
        named by its step's operator. Without, the region is the one step
        ``(operator, False)``, never split: ``fn``'s bare value is marked
        here and comes back bare."""
        one_step = steps is None
        if one_step:
            steps = ((operator, False),)
            fn = _one_step(fn)
        if self.cancellation is not None:
            self.cancellation.check()
        results = self._execute_items(operator, phase, items, fn, steps)
        return [value for value, _ in results] if one_step else results

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
        steps: Sequence[Step],
    ) -> List:
        """Run ``fn`` over ``items``; returns its ``(value, marks)`` per item
        in item order."""
        raise NotImplementedError


def _one_step(fn: Callable) -> Callable:
    """``fn`` as the one step of its region: ``(value, marks)``."""

    def item(arg):
        start = time.perf_counter()
        value = fn(arg)
        return value, ((0, start, time.perf_counter()),)

    return item


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
        steps: Sequence[Step],
    ) -> List:
        """Run the items serially, then schedule the steps they marked as
        one region."""
        results = [fn(item) for item in items]
        self._account_chain(operator, phase, [marks for _, marks in results], steps)
        return results

    def _account_chain(
        self,
        operator: str,
        phase: str,
        marks: Sequence[Sequence[Tuple[int, float, float]]],
        steps: Sequence[Step],
    ) -> None:
        """Schedule a region's measured steps (see the module docstring):
        ``marks`` holds each item's ``(step, start, end)``."""
        self.serial_time += sum(end - start for item in marks for _, start, end in item)
        barrier = self.sim_time
        if self.num_threads == 1:
            # One thread runs the units back to back, in any schedule.
            clock, units = barrier, []
            for index, item in enumerate(marks):
                for step, start, end in item:
                    if self.trace is not None:
                        units.append((0, clock, clock + end - start, steps[step][0], index))
                    clock += end - start
            self._clocks = [clock]
        else:
            chains = [
                (index, [(step, self._split(end - start, steps[step][1])) for step, start, end in item])
                for index, item in enumerate(marks)
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
                (piece, item) for item, chain in chains for step, parts in chain
                if step == index for piece in parts
            ]
            for duration, item in sorted(pieces, key=lambda p: p[0], reverse=True):
                thread, start = self._place(clocks, barrier, duration)
                units.append((thread, start, start + duration, name, item))
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
        for item, chain in sorted(chains, key=lambda c: -sum(sum(parts) for _, parts in c[1])):
            ready = barrier
            for step, parts in chain:
                ends = []
                for duration in parts:
                    thread, start = self._place(clocks, ready, duration)
                    units.append((thread, start, start + duration, steps[step][0], item))
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
