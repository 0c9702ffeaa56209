"""Admission control: bounded concurrency + an aggregate memory budget.

The controller tracks how many queries run and how many estimated bytes
their working sets reserve. A submission is admitted immediately when a
slot is free and its estimate fits under the remaining budget; otherwise it
waits in a bounded FIFO queue. Submissions that could *never* fit (estimate
above the whole budget) and submissions arriving at a full queue are
rejected with a typed :class:`~repro.errors.AdmissionError` — shedding load
at the door is what keeps the service responsive under overload.

Memory estimates come from the
:class:`~repro.logical.cardinality.CardinalityEstimator`
(:func:`estimate_memory_bytes`): the estimated row counts of every base
table scan plus the query's output, times a per-type byte width. The
estimate is deliberately coarse — admission control needs a stable ordering
signal, not an exact footprint.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, List, Optional

from ..errors import AdmissionError
from ..logical.plan import LogicalPlan, Scan
from ..types import DataType, Schema

#: In-memory bytes per value. A string is its int32 dictionary code; the
#: dictionary itself is counted once per scan, not per row.
_TYPE_BYTES = {
    DataType.INT64: 8,
    DataType.FLOAT64: 8,
    DataType.BOOL: 1,
    DataType.STRING: 4,
    DataType.DATE: 4,
}


def row_bytes(schema: Schema) -> int:
    """Estimated bytes per row of a schema."""
    return max(1, sum(_TYPE_BYTES[field.dtype] for field in schema))


def estimate_memory_bytes(plan: LogicalPlan, estimator) -> float:
    """Estimated working-set bytes of a query: every base-table scan it
    reads (rows plus the table's string dictionaries) plus its materialized
    output, via the cardinality estimator."""
    total = estimator.rows(plan) * row_bytes(plan.schema)
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            total += estimator.rows(node) * row_bytes(node.schema)
            total += estimator.dictionary_bytes(node)
        stack.extend(node.children)
    return total


class AdmissionController:
    """FIFO admission with a concurrency cap and a shared byte budget.

    Not a scheduler: it only decides *when* a ticket may start. The service
    dispatches tickets this controller hands back. Strict FIFO means a
    large queued query can delay smaller ones behind it — predictable
    ordering is worth more to a differential test bed than utilization.
    """

    def __init__(
        self,
        max_concurrent: int,
        max_queue: int,
        memory_budget_bytes: Optional[float] = None,
        extra_reserved: Optional[Callable[[], float]] = None,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.memory_budget_bytes = memory_budget_bytes
        #: Optional callable returning bytes held by other budget consumers
        #: (the materialization manager's resident cache); folded into the
        #: fit check so cached intermediates and running queries share one
        #: service budget.
        self.extra_reserved = extra_reserved
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self.running = 0
        self.reserved_bytes = 0.0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _extra(self) -> float:
        if self.extra_reserved is None:
            return 0.0
        try:
            return float(self.extra_reserved())
        except Exception:  # noqa: BLE001 — a broken gauge must not block
            return 0.0

    def _fits(self, est_bytes: float) -> bool:
        if self.running >= self.max_concurrent:
            return False
        if self.memory_budget_bytes is None:
            return True
        reserved = self.reserved_bytes + self._extra()
        return reserved + est_bytes <= self.memory_budget_bytes

    # ------------------------------------------------------------------
    def admit(self, ticket) -> bool:
        """Admit ``ticket`` (True = start now, False = queued) or raise
        :class:`AdmissionError`. ``ticket.est_bytes`` must be set."""
        est = ticket.est_bytes
        if (
            self.memory_budget_bytes is not None
            and est > self.memory_budget_bytes
        ):
            raise AdmissionError(
                f"query {ticket.query_id} estimated at {est:.0f} bytes "
                f"exceeds the service memory budget "
                f"({self.memory_budget_bytes:.0f} bytes)",
                reason="over_budget",
            )
        with self._lock:
            if not self._queue and self._fits(est):
                self.running += 1
                self.reserved_bytes += est
                return True
            if len(self._queue) >= self.max_queue:
                raise AdmissionError(
                    f"admission queue full ({self.max_queue} waiting); "
                    f"query {ticket.query_id} rejected",
                    reason="queue_full",
                )
            self._queue.append(ticket)
            return False

    def release(self, ticket) -> List:
        """Return ``ticket``'s slot and budget reservation; pops every
        queued ticket that now fits (FIFO) and returns them marked as
        running — the caller must dispatch each one."""
        with self._lock:
            self.running -= 1
            self.reserved_bytes -= ticket.est_bytes
            if self.reserved_bytes < 0:
                self.reserved_bytes = 0.0
            ready = []
            while self._queue and self._fits(self._queue[0].est_bytes):
                nxt = self._queue.popleft()
                self.running += 1
                self.reserved_bytes += nxt.est_bytes
                ready.append(nxt)
            return ready

    def remove(self, ticket) -> bool:
        """Withdraw a still-queued ticket (cancellation); False if it
        already left the queue."""
        with self._lock:
            try:
                self._queue.remove(ticket)
                return True
            except ValueError:
                return False
