"""Chrome ``trace_event`` export of a statement's span tree.

Emits the JSON array format understood by ``chrome://tracing`` and
Perfetto: complete ("X") events with microsecond timestamps. Work items
(one per morsel, per worker thread) keep their worker's ``tid``; region
spans (one per ``run_region`` barrier, covering the whole pipeline) are
emitted on a dedicated lane (``pid`` :data:`REGION_PID`) so the two levels
render as separate tracks.
"""

from __future__ import annotations

import json
from typing import List, Optional

#: pid of per-morsel work-item events.
WORKER_PID = 0
#: pid of region (pipeline barrier) span events.
REGION_PID = 1
#: pid of service-layer spans (admission-queue wait, admission reserve)
#: that happened *before* the engine started executing — a separate track
#: so queueing is never misread as operator time.
SERVICE_PID = 2

_REQUIRED_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")


def chrome_trace_events(trace) -> List[dict]:
    """An :class:`~repro.execution.trace.ExecutionTrace` as a list of Chrome
    ``trace_event`` dicts (times converted from seconds to microseconds).

    Three lanes off one tree: ``item`` spans on their worker's ``tid``,
    ``region`` spans (each with the skew of *its own* items), and the
    root's ``queue`` / ``admission`` stages. The root's query and session
    ids are merged into every event's args, so traces from concurrent
    clients stay attributable per query."""
    from .analyze import region_skew

    root = trace.root
    attribution = {}
    if root.attrs.get("query_id") is not None:
        attribution["query_id"] = root.attrs["query_id"]
    if root.attrs.get("session_id") is not None:
        attribution["session"] = root.attrs["session_id"]
    regions = trace.regions
    events = [
        _event(item.name, item.start, item.duration, WORKER_PID, item.thread,
               {"phase": region.attrs["phase"], **attribution})
        for region in regions
        for item in region.children
    ]
    for region in regions:
        items = region.attrs["items"]
        args = {"phase": region.attrs["phase"], "items": items, **attribution}
        if items >= 2:  # a one-item region cannot be skewed
            skew = region_skew(region)
            args["morsel_max_ms"] = skew["max_s"] * 1e3
            args["morsel_mean_ms"] = skew["mean_s"] * 1e3
            args["morsel_skew"] = skew["skew"]
            args["straggler_thread"] = skew["straggler_thread"]
        events.append(
            _event(f"region:{region.name}", region.start, region.duration, REGION_PID, 0, args)
        )
    # Service-layer waits precede execution: render them ending at t=0 so
    # the engine timeline (the scheduler's clock starts at 0) reads as
    # "after the queue".
    stages = root.stages()
    waits = (
        ("service:queue-wait", stages.get("queue", 0.0)),
        ("service:admission-reserve", stages.get("admission", 0.0)),
    )
    offset = sum(duration for _name, duration in waits)
    for name, duration in waits:
        if duration > 0.0:
            events.append(_event(name, -offset, duration, SERVICE_PID, 0, dict(attribution)))
            offset -= duration
    return events


def _event(name: str, start: float, duration: float, pid: int, tid: int, args: dict) -> dict:
    return {
        "name": name, "ph": "X", "ts": start * 1e6, "dur": duration * 1e6,
        "pid": pid, "tid": tid, "args": args,
    }


def validate_trace_events(events) -> None:
    """Raise ``ValueError`` unless ``events`` is a list of well-formed
    ``trace_event`` objects (the schema the acceptance tests check)."""
    if not isinstance(events, list):
        raise ValueError("trace must be a JSON array of event objects")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for key in _REQUIRED_KEYS:
            if key not in event:
                raise ValueError(f"event {index} is missing {key!r}")
        if event["ph"] != "X":
            raise ValueError(f"event {index}: only complete events expected")
        if not isinstance(event["ts"], (int, float)) or not isinstance(
            event["dur"], (int, float)
        ):
            raise ValueError(f"event {index}: ts/dur must be numbers")


def write_chrome_trace(path: str, trace, query: Optional[str] = None) -> int:
    """Serialize ``trace`` to ``path`` as a Chrome trace JSON array;
    returns the number of events written."""
    events = chrome_trace_events(trace)
    validate_trace_events(events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(events, handle, indent=1)
    return len(events)
