"""The service layer's two bounded containers ("keep the newest N").

:class:`Lru` is a bounded map that evicts its least recently used entry:
the plan cache and its pinned-slot table, the result cache, the workload
profiler's template table and the feedback store. :class:`Ring` is a
bounded log that rotates its oldest item out: the flight recorder and
the slow-query log. Each holds one lock and keeps its own counters;
neither imports anything from the rest of the package.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Callable, List, Optional

__all__ = ["Lru", "Ring"]


class Lru:
    """Thread-safe bounded map with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional ``callback(key, value)`` invoked (outside the lock) for
        #: every capacity eviction — the plan cache emits ``cache.evict``
        #: events, the feedback store unlinks the entry's file. ``discard``
        #: and ``clear`` do not fire it: dropping a stale entry is a
        #: correctness event, not a capacity one.
        self.on_evict = None

    def get(self, key):
        with self._lock:
            return self._get_locked(key)

    def peek(self, key):
        """The entry at ``key`` (or ``None``), neither touched nor counted."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = self._trim_locked()
        self._fire(evicted)

    def get_or_put(self, key, make: Callable[[], object]):
        """:meth:`get` ``key``, or on a miss :meth:`put` ``make()`` there and
        return it — one step under the lock, so racing callers share one
        entry."""
        with self._lock:
            entry = self._get_locked(key)
            if entry is not None:
                return entry
            entry = self._entries[key] = make()
            evicted = self._trim_locked()
        self._fire(evicted)
        return entry

    def _get_locked(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self._entries.move_to_end(key)
            self.hits += 1
        return entry

    def _trim_locked(self) -> list:
        evicted = []
        while len(self._entries) > self.capacity:
            evicted.append(self._entries.popitem(last=False))
            self.evictions += 1
        return evicted

    def _fire(self, evicted: list) -> None:
        if self.on_evict is not None:
            for key, value in evicted:
                try:
                    self.on_evict(key, value)
                except Exception:  # noqa: BLE001 — observers never break puts
                    pass

    def discard(self, key) -> None:
        """Drop one entry if present (stale-entry invalidation; does not
        count as a capacity eviction and does not fire ``on_evict``)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def values(self) -> list:
        """The entries, least recently used first (a snapshot)."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class Ring:
    """Thread-safe bounded log; when full, the oldest item rotates out."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Items ever appended, rotated-out ones included.
        self.recorded = 0

    def append(self, item) -> None:
        with self._lock:
            self.recorded += 1
            self._items.append(item)

    def snapshot(self, last: Optional[int] = None) -> List:
        """The retained items oldest first, or the newest ``last`` of them."""
        with self._lock:
            items = list(self._items)
        return items if last is None else items[-last:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "retained": len(self._items),
                "dropped": self.recorded - len(self._items),
            }

    def reset(self) -> None:
        with self._lock:
            self._items.clear()
            self.recorded = 0
