"""One span tree per statement (the data behind Figures 7 and 8).

A :class:`Span` is ``(kind, name, start, end, thread, attrs, item, children)``.
The kinds nest ``statement → stage → node → region → item``, each written
once by whoever owns its clock (docs/observability.md has the table): the
service and ``Database`` open the ``statement`` root and its stages when
telemetry is on; under ``collect_trace``, ``Dag.execute`` writes one
``node`` per executed LOLEPOP and the schedulers one ``region`` per
``run_region`` barrier with an ``item`` span per scheduled unit:
one per step a work item ran, named by that step's operator and carrying
the work item's index. A chain region's items run several steps, and the
region sits beside the ``node`` spans of the steps (it spans several of
them).

Statement, stage and node spans tick on the wall clock
(``time.perf_counter``); region and item spans on the scheduler's, which
starts at zero and counts *simulated* seconds on T virtual threads in
simulated mode, measured barrier-to-barrier seconds in parallel mode.
Within one clock every child interval lies inside its parent's.
"""

from __future__ import annotations

import string
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

class Span:
    """One interval of a statement's execution and what happened inside it."""

    __slots__ = ("kind", "name", "start", "end", "thread", "attrs", "item", "children")

    def __init__(
        self,
        kind: str,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        thread: int = 0,
        attrs: Optional[dict] = None,
        item: int = 0,
    ):
        self.kind = kind
        self.name = name
        # No start opens the span now, on the wall clock; no end leaves it open.
        self.start = time.perf_counter() if start is None else start
        self.end = end
        self.thread = thread
        self.attrs: dict = {} if attrs is None else attrs
        #: An ``item`` span's work item: its index in the region (a chain
        #: item's steps share one).
        self.item = item
        self.children: List[Span] = []

    def close(self) -> None:
        self.end = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        """Seconds of this span not spent inside a child of its own kind —
        a SOURCE node's time without the nested region it ran."""
        return self.duration - sum(
            child.duration for child in self.children if child.kind == self.kind
        )

    def walk(self, kind: str) -> Iterator["Span"]:
        """Every descendant of ``kind``, in the order it was written."""
        for child in self.children:
            if child.kind == kind:
                yield child
            if child.children:
                yield from child.walk(kind)

    def stages(self) -> Dict[str, float]:
        """Seconds per name of the ``stage`` spans directly below."""
        return {c.name: c.duration for c in self.children if c.kind == "stage"}


class ExecutionTrace:
    """One statement's span tree: root, write cursor and flat views."""

    def __init__(self, root: Optional[Span] = None) -> None:
        self.root = root if root is not None else Span("statement", "")
        #: The innermost open span: nodes, regions and ``translate`` stages
        #: attach here. Moved by :meth:`enter` only; :meth:`enter` and
        #: :meth:`add` are the only ways a span gets into the tree.
        self.open = self.root

    @contextmanager
    def enter(self, kind: str, name: str, attrs: Optional[dict] = None) -> Iterator[Span]:
        """Open a span now beneath the open one and make it the open one for
        the duration of the block; closed on the way out, error or not."""
        parent = self.open
        span = self.open = self.add(kind, name, attrs=attrs)
        try:
            yield span
        finally:
            span.close()
            self.open = parent

    def add(
        self,
        kind: str,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        """Attach a span beneath the open one: an interval the caller
        measured, or (no ``start``) one opened now and still open."""
        span = Span(kind, name, start, end, attrs=attrs)
        self.open.children.append(span)
        return span

    def add_region(
        self,
        operator: str,
        phase: str,
        start: float,
        end: float,
        units: Sequence[Tuple[int, float, float, str, int]],
        items: int,
    ) -> None:
        """:meth:`add` one ``run_region`` barrier of ``items`` work items.
        ``units`` are the ``(thread, start, end, operator, item)`` of what
        was scheduled: one per step an item ran (a split step is several),
        named by the step's operator, ``item`` the index of the work item it
        belongs to. Units share their region's ``attrs``."""
        attrs = {"phase": phase, "items": items}
        self.add("region", operator, start, end, attrs).children = [
            Span("item", name, unit_start, unit_end, thread, attrs, item)
            for thread, unit_start, unit_end, name, item in units
        ]

    # -- views ----------------------------------------------------------
    @property
    def regions(self) -> List[Span]:
        return list(self.root.walk("region"))

    @property
    def records(self) -> List[Span]:
        """Every work item, in execution order."""
        return [item for region in self.root.walk("region") for item in region.children]

    @property
    def makespan(self) -> float:
        return max((r.end for r in self.records), default=0.0)

    def operators(self) -> List[str]:
        return list(dict.fromkeys(r.name for r in self.records))

    def by_thread(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for record in self.records:
            out.setdefault(record.thread, []).append(record)
        return out

    def total_work(self, operator: Optional[str] = None) -> float:
        return sum(
            r.duration for r in self.records if operator is None or r.name == operator
        )

    def legend_letters(self) -> dict:
        """Deterministic, collision-free one-letter label per operator.

        Preference order per operator: its first letter uppercased, then the
        remaining letters of its name uppercased, then the alphabet — the
        first character not already taken wins, so two operators never share
        a legend letter no matter how their initials overlap.
        """
        letters: dict = {}
        alphabet = string.ascii_uppercase + string.ascii_lowercase + string.digits
        for op in self.operators():
            candidates = [c.upper() for c in op if c.isalnum()] + list(alphabet)
            letters[op] = next((c for c in candidates if c not in letters.values()), "?")
        return letters

    def render(self, width: int = 100) -> str:
        """ASCII Gantt chart: one row per thread, one letter per operator."""
        by_thread = self.by_thread()
        if not by_thread:
            return "(empty trace)"
        span = self.makespan or 1.0
        letters = self.legend_letters()
        legend = [f"{letter}={op}" for op, letter in letters.items()]
        lines = [f"makespan: {span * 1000:.2f} ms   " + "  ".join(legend)]
        for thread in sorted(by_thread):
            row = [" "] * width
            for record in by_thread[thread]:
                lo = int(record.start / span * (width - 1))
                hi = max(lo + 1, int(record.end / span * (width - 1)))
                for pos in range(lo, min(hi, width)):
                    row[pos] = letters[record.name]
            lines.append(f"T{thread:<2}|" + "".join(row) + "|")
        return "\n".join(lines)
