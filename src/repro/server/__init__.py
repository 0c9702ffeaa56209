"""Query service layer: sessions, admission control, caching, cancellation.

The paper's thesis is that small composable plan operators whose
materialized buffers are *reused within* a plan DAG compose into advanced
analytics; this package extends that reuse *across* queries and clients, in
the spirit of fine-grained plan reuse (Dittrich & Nix, "The Case for Deep
Query Optimisation", CIDR 2019). The service owns what individual queries
cannot: shared prepared plans, cached results, an admission queue over the
shared worker pools, and the cancellation tokens that keep one slow client
from wedging the rest.

Quickstart::

    from repro import Database
    from repro.server import QueryService, ServiceConfig

    db = Database()
    ...load tables...
    with QueryService(db, ServiceConfig(max_concurrent=4)) as service:
        session = service.session(num_threads=2)
        ticket = session.submit("SELECT count(*) FROM lineitem")
        print(ticket.result().rows())

See docs/server.md for semantics (admission, cache invalidation,
cancellation) and benchmarks/bench_server_throughput.py for the load
generator.
"""

from .admission import AdmissionController, estimate_memory_bytes
from .cache import PlanCache, PreparedPlan, ResultCache
from .service import QueryService, QueryTicket, ServiceConfig
from .session import Session

__all__ = [
    "AdmissionController",
    "PlanCache",
    "PreparedPlan",
    "QueryService",
    "QueryTicket",
    "ResultCache",
    "ServiceConfig",
    "Session",
    "estimate_memory_bytes",
]
