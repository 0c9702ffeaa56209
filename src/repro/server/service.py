"""The concurrent query service.

:class:`QueryService` sits in front of a :class:`~repro.api.Database` and
turns the single-caller facade into a multi-client server:

- submissions arrive from many threads. A submission admitted to a free
  slot is *ready*: it holds its slot, but no thread is woken for it. The
  first thread to wait for it without a shorter timeout
  (:meth:`QueryTicket.result`, and so :meth:`Session.execute`) runs it
  itself. Anything else that reaches the service first (a later
  :meth:`~QueryService.submit`, :meth:`~QueryService.cancel`,
  :meth:`~QueryService.stats`, :meth:`~QueryService.shutdown`, a
  :attr:`QueryTicket.done` poll or a wait with a shorter timeout) hands
  the ready tickets to a bounded driver pool (one worker per admission
  slot), as does a slot freed for a queued ticket. Either way the one
  :meth:`QueryService._run` runs it. The per-query *work items* still
  execute on the process-wide scheduler pools
  (:func:`repro.execution.parallel.shared_pool`), which all concurrent
  queries share. The driver pool is deliberately a separate executor: if
  query drivers and their own work items shared one pool, drivers occupying
  every worker would wait forever on work items that can no longer be
  scheduled.
- admission control (:mod:`repro.server.admission`) bounds concurrency and
  aggregate estimated memory; excess queries wait in a bounded FIFO queue
  and hopeless ones are rejected with
  :class:`~repro.errors.AdmissionError`.
- plan caching lives on the database (shared by every session); this layer
  adds a bounded LRU **result cache** for read-only statements, invalidated
  like the plan cache by the versions of the tables a statement reads and
  the catalog's DDL version.
- every query gets a :class:`~repro.execution.cancellation.CancellationToken`
  with an optional deadline; both schedulers check it at region barriers,
  so ``cancel()`` and timeouts surface as
  :class:`~repro.errors.QueryCancelled` without killing threads.

Service counters/histograms go to the service's own
:class:`~repro.observability.metrics.MetricsRegistry` under the
``service.`` prefix: admitted/queued/rejected/cancelled/completed/failed,
result-cache hits, queue-depth gauge, and queue-wait / latency histograms.
:meth:`QueryService.stats` reads them together with the admission
controller's and the caches' state at the moment it is called.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from ..errors import AdmissionError, QueryCancelled
from ..execution.cancellation import CancellationToken
from ..execution.trace import ExecutionTrace
from ..observability.metrics import MetricsRegistry
from ..observability.telemetry import GLOBAL_TELEMETRY, Telemetry
from .admission import AdmissionController, estimate_memory_bytes
from .cache import ResultCache
from .session import Session

#: Histogram bounds for queue-wait times: finer than the default latency
#: buckets at the short end (well-provisioned services queue for
#: microseconds, overloaded ones for seconds).
_QUEUE_WAIT_BUCKETS = (
    0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
    30.0,
)


class ServiceConfig:
    """Tunables of one :class:`QueryService`."""

    def __init__(
        self,
        max_concurrent: int = 4,
        max_queue: int = 32,
        memory_budget_bytes: Optional[float] = None,
        result_cache_size: int = 64,
        default_timeout: Optional[float] = None,
    ):
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        #: Aggregate estimated-working-set budget across running queries;
        #: ``None`` disables memory-based admission.
        self.memory_budget_bytes = memory_budget_bytes
        #: ``0`` disables the result cache.
        self.result_cache_size = result_cache_size
        #: Applied to queries submitted without an explicit timeout.
        self.default_timeout = default_timeout


class QueryTicket:
    """Handle to one submitted query: state, result, and cancellation."""

    def __init__(self, query_id: str, sql: str, session_id: str):
        self.query_id = query_id
        self.sql = sql
        self.session_id = session_id
        #: ``queued`` → ``running`` → ``done`` | ``failed`` | ``cancelled``.
        #: Result-cache hits are born ``done``.
        self.state = "queued"
        self.est_bytes = 0.0
        self.from_result_cache = False
        self.token: Optional[CancellationToken] = None
        #: The statement's span tree (``Database.prepare_timed`` opens it,
        #: :meth:`QueryService._close_waits` adds the waits).
        self.trace: Optional[ExecutionTrace] = None
        self.submitted_at = time.perf_counter()
        #: When ``admission.admit`` was entered and when it returned.
        self._admit_started = self.submitted_at
        self._queued_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._result = None
        self._error: Optional[BaseException] = None
        self._event = threading.Event()
        #: The service that admitted this ticket (see :meth:`result`);
        #: ``None`` for one that never waits for a slot.
        self._service: Optional["QueryService"] = None
        # Set by the service at submit time; consumed by _run.
        self._prepared = None
        self._engine = "lolepop"
        self._config = None
        self._cache_key = None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Has the query finished? A poll hands ready tickets to the driver
        pool, so a polled ticket finishes without a waiter."""
        if not self._event.is_set() and self._service is not None:
            self._service._start_ready()
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Block until the query finishes; returns its
        :class:`~repro.lolepop.engine.QueryResult` or raises the query's
        error (:class:`~repro.errors.QueryCancelled` after cancel/timeout,
        :class:`~repro.errors.AdmissionError` if it never ran, ...).

        A ready ticket (admitted to a free slot, no thread yet) runs on the
        calling thread when the wait has no timeout or the ticket's own
        deadline ends no later than the wait's; otherwise it goes to the
        driver pool and this thread only waits."""
        if not self._event.is_set() and self._service is not None:
            self._service._serve_waiter(self, timeout)
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query {self.query_id} still {self.state} after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def _finish(self, state: str, result=None, error=None) -> None:
        self.state = state
        self._result = result
        self._error = error
        self.finished_at = time.perf_counter()
        self._event.set()


class QueryService:
    """Concurrent, cached, admission-controlled front end of a database."""

    def __init__(
        self,
        database,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.db = database
        self.config = config or ServiceConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()
        #: Service telemetry sink. Defaults to the database's (so a private
        #: Database telemetry captures its service too), falling back to
        #: the process-wide GLOBAL_TELEMETRY.
        if telemetry is not None:
            self.telemetry = telemetry
        else:
            self.telemetry = (
                getattr(database, "telemetry", None) or GLOBAL_TELEMETRY
            )
        # The materialization manager's resident bytes count against the
        # same service budget as running queries: cached intermediates are
        # memory the service is holding, not free headroom.
        reuse = getattr(database, "reuse", None)
        self.admission = AdmissionController(
            self.config.max_concurrent,
            self.config.max_queue,
            self.config.memory_budget_bytes,
            extra_reserved=(
                (lambda: reuse.resident_bytes) if reuse is not None else None
            ),
        )
        self.result_cache = (
            ResultCache(self.config.result_cache_size)
            if self.config.result_cache_size
            else None
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent,
            thread_name_prefix="repro-service",
        )
        self._ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        #: Live (not yet finished) tickets by query id.
        self._tickets: Dict[str, QueryTicket] = {}
        #: Ready tickets (admitted, holding a slot, run by no thread yet) by
        #: query id, in submission order. Whoever pops one runs it or hands
        #: it to the driver pool: exactly one thread claims it.
        self._ready: Dict[str, QueryTicket] = {}
        self._tickets_lock = threading.Lock()
        self._closed = False
        if self.result_cache is not None:
            self.result_cache.on_evict = self._on_result_evict

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, **kwargs) -> Session:
        """Open a new client session; keyword arguments become the
        session's config overrides (see :class:`Session`)."""
        return Session(self, f"s{next(self._session_ids)}", **kwargs)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        session: Optional[Session] = None,
        engine: Optional[str] = None,
        config=None,
        timeout: Optional[float] = None,
        use_result_cache: bool = True,
    ) -> QueryTicket:
        """Submit one statement; returns immediately with a
        :class:`QueryTicket`. Raises :class:`~repro.errors.AdmissionError`
        when the service refuses the query (full queue / over budget)."""
        if self._closed:
            raise AdmissionError("service is shut down", reason="shutdown")
        self._start_ready()
        self._count("service.submitted")
        engine = engine or (session.engine if session is not None else "lolepop")
        if config is None and session is not None:
            config = session.engine_config()
        base_config = self.db.run_config(engine, config)
        if timeout is None:
            timeout = (
                session.default_timeout
                if session is not None and session.default_timeout is not None
                else self.config.default_timeout
            )

        ticket = QueryTicket(
            f"q{next(self._ids)}",
            sql,
            session.session_id if session is not None else "-",
        )
        prepared, plan_hit, ticket.trace = self.db.prepare_timed(
            sql, engine, ticket.query_id, ticket.session_id, base_config
        )
        ticket._prepared = prepared
        ticket._engine = engine
        if plan_hit:
            self._count("service.plan_cache_hits")
            self.telemetry.event(
                "cache.hit",
                cache="plan",
                query_id=ticket.query_id,
                session_id=ticket.session_id,
            )

        # Result cache: only read-only statements, only when the caller is
        # not asking for a fresh trace.
        cacheable = (
            self.result_cache is not None
            and use_result_cache
            and prepared.cacheable
            and not base_config.collect_trace
        )
        if cacheable:
            # Version component = the statement's own table dependencies
            # (per-table versions + DDL version), so DML on unrelated
            # tables leaves this entry servable.
            lookup_started = time.perf_counter()
            key = (
                prepared.skeleton, prepared.slots,
                prepared.dep_token(self.db.catalog), engine,
            )
            ticket._cache_key = key
            cached = self.result_cache.get(key)
            if cached is not None:
                self._count("service.result_cache_hits")
                ticket.from_result_cache = True
                ticket.started_at = ticket.submitted_at
                ticket._finish("done", result=cached)
                self._count("service.completed")
                self.telemetry.event(
                    "cache.hit",
                    cache="result",
                    query_id=ticket.query_id,
                    session_id=ticket.session_id,
                )
                # Never reaches execute_prepared: recorded here, the lookup
                # being all the executing there was.
                if ticket.trace is not None:
                    ticket.trace.root.attrs["result_cache_hit"] = True
                    ticket.trace.add("stage", "execute", lookup_started, time.perf_counter())
                self._record(ticket, base_config, result=cached)
                return ticket

        token = CancellationToken.with_timeout(timeout, ticket.query_id)
        ticket.token = token
        ticket._config = base_config.clone(cancellation=token)
        if (
            self.config.memory_budget_bytes is not None
            and prepared.plan is not None
        ):
            ticket.est_bytes = estimate_memory_bytes(
                prepared.plan, self.db.estimator
            )

        ticket._service = self
        ticket._admit_started = time.perf_counter()
        try:
            with self._tickets_lock:
                run_now = self.admission.admit(ticket)
                self._tickets[ticket.query_id] = ticket
                if run_now:
                    # Ready as it is admitted: a submit queued behind it
                    # finds it here and starts it.
                    self._ready[ticket.query_id] = ticket
        except AdmissionError as error:
            self._count("service.rejected")
            self.telemetry.event(
                "admission.reject",
                query_id=ticket.query_id,
                session_id=ticket.session_id,
                reason=error.reason,
                est_bytes=ticket.est_bytes,
            )
            ticket._finish("failed", error=error)
            raise
        ticket._queued_at = time.perf_counter()
        self._count("service.admitted")
        if not run_now:
            self._count("service.queued")
            self._gauge("service.queue_depth", self.admission.queue_depth)
            self._start_ready()  # the tickets holding the slots it waits for
        return ticket

    # ------------------------------------------------------------------
    def cancel(self, query_id: str) -> bool:
        """Cancel a queued or running query. Queued queries die immediately;
        running ones stop at their next region barrier. Returns False when
        the id is unknown or already finished. A ready ticket is finished
        ``cancelled`` on this thread; the other ready tickets go to the
        driver pool."""
        with self._tickets_lock:
            ticket = self._tickets.get(query_id)
        ready = ticket is not None and self._claim(ticket)
        self._start_ready()
        if ticket is None or ticket._event.is_set():
            return False
        if self.admission.remove(ticket):
            # Still queued: it never started, finish it here.
            self._gauge("service.queue_depth", self.admission.queue_depth)
            self._retire(ticket)
            self._close_waits(ticket, time.perf_counter())
            error = QueryCancelled("cancelled while queued", query_id)
            ticket._finish("cancelled", error=error)
            self._count("service.cancelled")
            self._record(ticket, ticket._config, error=error)
            return True
        if ticket.token is not None:
            ticket.token.cancel()
            if ready:
                self._run(ticket)  # dies at its first token check
            return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, ticket: QueryTicket) -> None:
        self._executor.submit(self._run, ticket)

    def _claim(self, ticket: QueryTicket) -> bool:
        """Take ``ticket`` out of the ready set; True for the one thread
        that did, which must run or dispatch it."""
        with self._tickets_lock:
            return self._ready.pop(ticket.query_id, None) is not None

    def _start_ready(self) -> None:
        """Hand every ready ticket to the driver pool."""
        if not self._ready:
            return
        with self._tickets_lock:
            ready = list(self._ready.values())
            self._ready.clear()
        for ticket in ready:
            self._dispatch(ticket)

    def _serve_waiter(self, ticket: QueryTicket, timeout: Optional[float]) -> None:
        """A thread is about to wait ``timeout`` seconds for ``ticket``: run
        it here if it is ready and the wait outlasts it (no timeout, or a
        deadline no later than the wait's end); else start every ready
        ticket on the driver pool."""
        deadline = ticket.token.deadline if ticket.token is not None else None
        if (
            timeout is None
            or (deadline is not None and deadline <= time.monotonic() + timeout)
        ) and self._claim(ticket):
            self._run(ticket)
        else:
            self._start_ready()

    def _run(self, ticket: QueryTicket) -> None:
        ticket.started_at = time.perf_counter()
        self._close_waits(ticket, ticket.started_at)
        ticket.state = "running"
        self._histogram(
            "service.queue_wait_seconds", _QUEUE_WAIT_BUCKETS
        ).observe(ticket.queue_wait)
        self.telemetry.event(
            "query.start",
            query_id=ticket.query_id,
            session_id=ticket.session_id,
            engine=ticket._engine,
            queue_wait_s=ticket.queue_wait,
        )
        executed = False
        try:
            if ticket.token is not None:
                ticket.token.check()  # cancelled while queued?
            # execute_prepared emits this query's QueryRecord (including
            # error/cancel status) — one record per query, service or not.
            executed = True
            result = self.db.execute_prepared(
                ticket._prepared,
                engine=ticket._engine,
                config=ticket._config,
                trace=ticket.trace,
            )
        except QueryCancelled as error:
            ticket._finish("cancelled", error=error)
            self._count("service.cancelled")
            if ticket.token is not None and ticket.token.expired():
                self._count("service.timeouts")
            if not executed:
                # Died on the pre-execution token check: execute_prepared
                # never ran, so no record exists yet for this query.
                self._record(ticket, ticket._config, error=error)
        except BaseException as error:  # noqa: BLE001 — recorded, not lost
            ticket._finish("failed", error=error)
            self._count("service.failed")
        else:
            if ticket._cache_key is not None:
                self.result_cache.admit(ticket._cache_key, result)
            ticket._finish("done", result=result)
            self._count("service.completed")
            self._histogram("service.latency_seconds").observe(ticket.latency)
        finally:
            self._retire(ticket)
            for ready in self.admission.release(ticket):
                self._dispatch(ready)
            self._gauge("service.queue_depth", self.admission.queue_depth)

    def _retire(self, ticket: QueryTicket) -> None:
        with self._tickets_lock:
            self._tickets.pop(ticket.query_id, None)

    # ------------------------------------------------------------------
    # Telemetry hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _close_waits(ticket: QueryTicket, now: float) -> None:
        """Write the ticket's ``admission`` and ``queue`` stages as it stops
        waiting (starts running, or is cancelled in the queue), on the
        thread that runs it or cancels it in the queue: the tree has one
        writer at a time. A thread that gets here before ``submit`` saw
        ``admit`` return found the ticket not queued."""
        if ticket.trace is not None:
            queued_at = min(ticket._queued_at or now, now)
            ticket.trace.add("stage", "admission", ticket._admit_started, queued_at)
            ticket.trace.add("stage", "queue", queued_at, now)

    def _record(self, ticket: QueryTicket, config, result=None, error=None) -> None:
        """Record a ticket that finished without reaching
        ``Database.execute_prepared`` (which records every statement it
        runs): a result-cache hit, or a cancel before execution started."""
        if ticket.trace is not None and self.telemetry.enabled:
            self.telemetry.record_execution(
                ticket.trace.root, ticket._prepared, config, result, error
            )

    def _on_result_evict(self, key, value) -> None:
        """Result-cache capacity eviction → flight-recorder breadcrumb."""
        self.telemetry.event(
            "cache.evict",
            cache="result",
            sql=self.telemetry.truncate_sql(key[0]),
            engine=key[2],
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        self.metrics.counter(name).inc()

    def _gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def _histogram(self, name: str, bounds=None):
        if bounds is not None:
            return self.metrics.histogram(name, bounds)
        return self.metrics.histogram(name)

    def stats(self) -> dict:
        """One JSON-serializable snapshot of the whole service layer."""
        self._start_ready()
        service = {
            name.split(".", 1)[1]: value
            for name, value in self.metrics.snapshot().items()
            if name.startswith("service.")
        }
        out = {
            "service": service,
            "running": self.admission.running,
            "queue_depth": self.admission.queue_depth,
            "reserved_bytes": self.admission.reserved_bytes,
        }
        if self.db.plan_cache is not None:
            out["plan_cache"] = self.db.plan_cache.stats()
        if self.result_cache is not None:
            out["result_cache"] = self.result_cache.stats()
        reuse = getattr(self.db, "reuse", None)
        if reuse is not None:
            out["reuse"] = reuse.stats()
        out["telemetry"] = self.telemetry.summary()
        return out

    def shutdown(self, wait: bool = True, cancel_running: bool = False) -> None:
        """Refuse new submissions, start every ready ticket on the driver
        pool and stop the pool. With ``cancel_running`` every live query is
        cancelled first."""
        self._closed = True
        if cancel_running:
            with self._tickets_lock:
                live = list(self._tickets.values())
            for ticket in live:
                self.cancel(ticket.query_id)
        self._start_ready()
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
