"""Per-client sessions.

A :class:`Session` belongs to one :class:`~repro.server.service.QueryService`
and carries client-local state: engine-config overrides (thread count,
execution mode, optimizer flags, ...), a default statement timeout, and a
dictionary of named prepared statements. Sessions are cheap — one small
object, no threads — and a client may hold several.

Sessions are the unit of configuration, not of isolation: all sessions see
one shared catalog, and the service's plan/result caches are shared too
(keyed on SQL, valid while the tables read and the catalog's DDL are
unchanged, so they never leak config-dependent
*results* across sessions — result-cache keys are engine-scoped and traced
runs bypass it).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ReproError


class Session:
    """One client's handle onto the query service."""

    def __init__(
        self,
        service,
        session_id: str,
        engine: str = "lolepop",
        default_timeout: Optional[float] = None,
        **config_overrides,
    ):
        self.service = service
        self.session_id = session_id
        self.engine = engine
        #: Applied to every submission that has no explicit timeout.
        self.default_timeout = default_timeout
        #: ``EngineConfig.clone`` keyword overrides layered onto the
        #: database's base config (e.g. ``num_threads=8``,
        #: ``execution_mode="parallel"``).
        self.config_overrides: Dict[str, object] = dict(config_overrides)
        #: name → :class:`~repro.server.cache.PreparedPlan`.
        self._prepared: Dict[str, object] = {}
        self.closed = False

    # ------------------------------------------------------------------
    def engine_config(self):
        """The session's effective :class:`~repro.execution.EngineConfig`."""
        base = self.service.db.config
        if not self.config_overrides:
            return base
        return base.clone(**self.config_overrides)

    def set_option(self, **overrides) -> "Session":
        """Update config overrides (``session.set_option(num_threads=8)``)."""
        self.config_overrides.update(overrides)
        return self

    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        timeout: Optional[float] = None,
        engine: Optional[str] = None,
        use_result_cache: bool = True,
    ):
        """Submit asynchronously; returns a
        :class:`~repro.server.service.QueryTicket`."""
        self._check_open()
        return self.service.submit(
            sql,
            session=self,
            engine=engine,
            timeout=timeout,
            use_result_cache=use_result_cache,
        )

    def execute(
        self,
        sql: str,
        timeout: Optional[float] = None,
        engine: Optional[str] = None,
        use_result_cache: bool = True,
    ):
        """Submit and block for the result
        (:class:`~repro.lolepop.engine.QueryResult`). A statement admitted
        to a free slot runs on this thread."""
        return self.submit(
            sql,
            timeout=timeout,
            engine=engine,
            use_result_cache=use_result_cache,
        ).result()

    def cancel(self, query_id: str) -> bool:
        """Cancel one of this service's queries by id (queued queries die
        immediately, running ones at their next region barrier)."""
        return self.service.cancel(query_id)

    # ------------------------------------------------------------------
    # Prepared statements
    # ------------------------------------------------------------------
    def prepare(self, name: str, sql: str):
        """Parse/bind ``sql`` once and remember it as ``name``."""
        self._check_open()
        self._prepared[name] = self.service.db.prepare(sql)
        return self._prepared[name]

    def execute_prepared(self, name: str, timeout: Optional[float] = None):
        """Submit a statement prepared earlier with :meth:`prepare` and
        block for its result."""
        prepared = self._prepared.get(name)
        if prepared is None:
            raise ReproError(f"no prepared statement named {name!r}")
        # Submission goes through the normal path (the plan cache makes the
        # second lookup free) so prepared statements share admission
        # control, caching, and metrics with ad-hoc SQL.
        return self.execute(prepared.sql, timeout=timeout)

    def prepared_names(self):
        return sorted(self._prepared)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Mark the session closed; subsequent submissions raise."""
        self.closed = True
        self._prepared.clear()

    def _check_open(self) -> None:
        if self.closed:
            raise ReproError(f"session {self.session_id} is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session({self.session_id!r}, engine={self.engine!r}, "
            f"overrides={self.config_overrides})"
        )
