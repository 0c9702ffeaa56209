"""The flight recorder: a bounded ring buffer of structured service events.

Every interesting service-level incident — query start/finish/error/cancel,
admission rejections, cache hits and evictions, spilling, verifier
diagnostics — is appended as one :class:`TelemetryEvent` with a monotonic
timestamp and a small flat payload. The buffer is a fixed-capacity ring:
memory stays bounded no matter how long the server runs, and when it wraps
the *oldest* events rotate out (``stats()["dropped"]`` says how many — a
healthy deployment sizes the ring so steady-state inspection windows never
drop).

The recorder is the black box an operator pulls after an incident:
:meth:`FlightRecorder.snapshot` returns the retained events newest-last as
plain dicts, :meth:`FlightRecorder.dump_json` writes them to disk, and the
owning :class:`~repro.observability.telemetry.Telemetry` can dump
automatically when a query errors.

The recorder is a :class:`~repro.bounded.Ring` that numbers and counts
its events by kind; recording is a timestamp, a tuple construction, and a
deque append under the ring's lock — cheap enough to stay always-on in the
serving path.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, NamedTuple, Optional

from ..bounded import Ring

#: Event kinds the service layer emits. The recorder accepts any string —
#: this tuple documents the vocabulary and anchors the tests.
EVENT_KINDS = (
    "query.start",
    "query.finish",
    "query.error",
    "query.cancel",
    "admission.reject",
    "cache.hit",
    "cache.evict",
    "spill",
    "verifier.diagnostic",
    "reuse.hit",
    "reuse.miss",
    "reuse.evict",
    "reuse.maintain",
    "feedback.load_error",
    "feedback.evict",
    "feedback.replan",
)


class TelemetryEvent(NamedTuple):
    """One structured flight-recorder entry."""

    #: Process-wide monotonically increasing sequence number.
    seq: int
    #: ``time.monotonic()`` at record time (ordering, durations).
    ts: float
    #: ``time.time()`` at record time (human-readable wall clock).
    wall: float
    #: Event family, e.g. ``"query.finish"`` (see :data:`EVENT_KINDS`).
    kind: str
    #: Small flat payload (strings / numbers / short lists only).
    fields: dict

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "wall": self.wall,
            "kind": self.kind,
            **self.fields,
        }


class FlightRecorder(Ring):
    """Ring buffer of :class:`TelemetryEvent`, numbered and counted by kind."""

    def __init__(self, capacity: int = 4096):
        super().__init__(capacity)
        #: Per-kind totals (bounded: one entry per event kind).
        self._by_kind: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def record(self, kind: str, **fields) -> TelemetryEvent:
        """Append one event, numbered by ``recorded``; returns it (mostly
        for tests)."""
        with self._lock:
            self.recorded += 1
            event = TelemetryEvent(
                self.recorded, time.monotonic(), time.time(), kind, fields
            )
            self._items.append(event)
            self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        return event

    # ------------------------------------------------------------------
    def snapshot(
        self, last: Optional[int] = None, kind: Optional[str] = None
    ) -> List[dict]:
        """Retained events as dicts, oldest first; optionally filtered by
        ``kind`` and truncated to the ``last`` N."""
        out = [
            e.to_dict() for e in super().snapshot() if kind is None or e.kind == kind
        ]
        return out if last is None else out[-last:]

    def stats(self) -> dict:
        with self._lock:
            by_kind = dict(sorted(self._by_kind.items()))
        return {**super().stats(), "by_kind": by_kind}

    def reset(self) -> None:
        super().reset()
        with self._lock:
            self._by_kind.clear()

    # ------------------------------------------------------------------
    def dump_json(self, path: str) -> int:
        """Write ``{"stats": ..., "events": [...]}`` to ``path``; returns
        the number of events written."""
        events = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats(), "events": events}, handle, indent=1)
        return len(events)
