"""Runtime concurrency sanitizer (``REPRO_SANITIZE=on``).

Dynamic half of the concurrency analyzer: :class:`Sanitizer` tracks every
instrumented :class:`~repro.storage.buffer.TupleBuffer` /
:class:`~repro.storage.buffer.BufferPartition` /
:class:`~repro.storage.column.Column` access with a *writer/reader epoch*
— (region sequence number, thread ident, caller site) — and reports a
dynamic race whenever two distinct threads touch the same object inside
one ``run_region`` barrier with at least one write. The schedulers
bracket every region with :meth:`Sanitizer.begin_region` /
:meth:`Sanitizer.end_region`, so "same epoch" means "not ordered by a
barrier", which is exactly the engine's happens-before relation.

One refinement: accesses by the *region-owning* thread (the one that
called ``begin_region``) never race. Both schedulers order them by
construction — a chain's planning runs on the owner before its items
are submitted to the pool, its finishes after every future has
resolved, and the owner otherwise blocks in the barrier — so owner
accesses are counted (``access_count``) but excluded from conflict
detection.

The sanitizer exists to *cross-check the static passes*: the parallel
fuzz corpus runs with it on and asserts (a) zero dynamic races and
(b) zero analyzer false-negatives — a dynamic race whose site has no
static race/purity finding fails the suite via
:func:`analyzer_false_negatives`, because it means the static analyzer
missed real shared mutable state.

Zero overhead when off, same pattern as telemetry: every hook is

    if _SAN.active is not None:
        _SAN.active.on_access(self, "w")

one attribute load and one branch on the hot path; no object is
allocated and no function is called until :func:`enable` installs a
live :class:`Sanitizer`.

Scope: the epoch is process-global (one query at a time). The fuzz
harness and the CLI drive one query per region sequence; concurrent
``QueryService`` sessions should not run with the sanitizer enabled.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, List, Optional, Tuple


class _Hook:
    """Module-level holder read by the instrumented hot paths."""

    __slots__ = ("active",)

    def __init__(self) -> None:
        #: ``None`` when the sanitizer is off (the only branch hot code
        #: takes); a live :class:`Sanitizer` when on.
        self.active: Optional["Sanitizer"] = None


SAN = _Hook()


class DynamicRace:
    """Two threads touched one object inside one region, >=1 write."""

    __slots__ = (
        "object_type", "operator", "phase", "epoch",
        "site", "other_site", "threads", "kinds",
    )

    def __init__(
        self,
        object_type: str,
        operator: str,
        phase: str,
        epoch: int,
        site: Tuple[str, int],
        other_site: Tuple[str, int],
        threads: Tuple[int, int],
        kinds: Tuple[str, str],
    ):
        self.object_type = object_type
        self.operator = operator
        self.phase = phase
        self.epoch = epoch
        #: ``(filename, lineno)`` of the access that completed the race.
        self.site = site
        #: ``(filename, lineno)`` of the earlier conflicting access.
        self.other_site = other_site
        self.threads = threads
        self.kinds = kinds

    def __str__(self) -> str:
        return (
            f"{self.site[0]}:{self.site[1]}: [sanitizer] dynamic race on "
            f"{self.object_type} in region {self.operator}/{self.phase} "
            f"(epoch {self.epoch}): {self.kinds[0]} by thread "
            f"{self.threads[0]} vs {self.kinds[1]} by thread "
            f"{self.threads[1]} at {self.other_site[0]}:{self.other_site[1]}"
        )

    def to_dict(self) -> dict:
        return {
            "object_type": self.object_type,
            "operator": self.operator,
            "phase": self.phase,
            "epoch": self.epoch,
            "site": list(self.site),
            "other_site": list(self.other_site),
            "threads": list(self.threads),
            "kinds": list(self.kinds),
        }


class Sanitizer:
    """Writer/reader epoch tracker behind the ``_SAN.active`` branch."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Current region epoch, or ``None`` between regions (serial code
        #: on the submitting thread cannot race across a barrier).
        self._epoch: Optional[int] = None
        self._seq = 0
        self._region: Tuple[str, str] = ("", "")
        #: Thread that opened the current region; its accesses are
        #: pre-submission or post-barrier, hence ordered (see module doc).
        self._owner: Optional[int] = None
        #: id(obj) -> {"type": str, "w": {tid: site}, "r": {tid: site}}
        #: for the current epoch only; cleared at every barrier so object
        #: ids cannot be confused across id() reuse.
        self._table: Dict[int, dict] = {}
        self._raced: set = set()
        #: Confirmed dynamic races, kept across regions for reporting.
        self.races: List[DynamicRace] = []
        #: Total instrumented accesses observed inside regions — lets the
        #: fuzz harness assert the instrumentation was actually live.
        self.access_count = 0
        self.region_count = 0

    # ------------------------------------------------------------------
    def begin_region(self, operator: str, phase: str) -> None:
        """Called by both schedulers on the submitting thread when a
        ``run_region`` barrier opens."""
        with self._lock:
            self._seq += 1
            self._epoch = self._seq
            self._region = (operator, phase)
            self._owner = threading.get_ident()
            self._table = {}
            self.region_count += 1

    def end_region(self) -> None:
        """Barrier closed: later accesses are happens-after everything in
        this epoch, so the epoch table is dropped."""
        with self._lock:
            self._epoch = None
            self._table = {}

    # ------------------------------------------------------------------
    def on_access(self, obj: object, kind: str) -> None:
        """Record one instrumented access ("r" or "w") to ``obj``.

        Only called when the sanitizer is active; cheap no-op between
        regions. The *caller* of the instrumented storage method (two
        frames up: on_access <- hooked method <- caller) is recorded as
        the access site, which is the operator code a static finding
        would point at.
        """
        if self._epoch is None:
            return
        tid = threading.get_ident()
        frame = sys._getframe(2)
        site = (frame.f_code.co_filename, frame.f_lineno)
        with self._lock:
            if self._epoch is None:
                return
            self.access_count += 1
            if tid == self._owner:
                return
            entry = self._table.get(id(obj))
            if entry is None:
                entry = {"type": type(obj).__name__, "w": {}, "r": {}}
                self._table[id(obj)] = entry
            entry[kind][tid] = site
            # A race needs two distinct threads and at least one write.
            if kind == "w":
                conflicts = [
                    (t, "w", s) for t, s in entry["w"].items() if t != tid
                ] + [
                    (t, "r", s) for t, s in entry["r"].items() if t != tid
                ]
            else:
                conflicts = [
                    (t, "w", s) for t, s in entry["w"].items() if t != tid
                ]
            if conflicts:
                key = (id(obj), self._epoch)
                if key not in self._raced:
                    self._raced.add(key)
                    other_tid, other_kind, other_site = conflicts[0]
                    self.races.append(
                        DynamicRace(
                            entry["type"],
                            self._region[0],
                            self._region[1],
                            self._epoch,
                            site,
                            other_site,
                            (tid, other_tid),
                            (kind, other_kind),
                        )
                    )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self._epoch = None
            self._owner = None
            self._table = {}
            self._raced = set()
            self.races = []
            self.access_count = 0
            self.region_count = 0


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def enable() -> Sanitizer:
    """Install (or return the already-installed) live sanitizer."""
    if SAN.active is None:
        SAN.active = Sanitizer()
    return SAN.active


def disable() -> None:
    SAN.active = None


def _site_key(filename: str) -> str:
    """Normalize an access-site filename for cross-checking against
    static finding paths: the path from the last ``repro/`` component on
    (or the basename for out-of-tree files such as test modules)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index >= 0:
        return "repro/" + path[index + len(marker):]
    return path.rsplit("/", 1)[-1]


def analyzer_false_negatives(races, static_findings) -> List[DynamicRace]:
    """Dynamic races whose site file carries *no* static race/purity
    finding — each one is an analyzer false-negative and fails the fuzz
    suite symmetric to a dynamic race itself.

    ``static_findings`` is any iterable of objects with ``rule`` and
    ``path`` attributes (the analyzer's race/purity findings, rules
    ``A1-*``/``A2-*``).
    """
    flagged_files = {
        _site_key(str(f.path))
        for f in static_findings
        if str(getattr(f, "rule", "")).startswith(("A1-", "A2-"))
    }
    missed = []
    for race in races:
        keys = {_site_key(race.site[0]), _site_key(race.other_site[0])}
        if not (keys & flagged_files):
            missed.append(race)
    return missed


if os.environ.get("REPRO_SANITIZE", "").lower() in ("on", "1", "true"):
    enable()
