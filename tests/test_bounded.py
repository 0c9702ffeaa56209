"""The bounded-container contract (:mod:`repro.bounded`): the one LRU map
behind the plan, result, workload and feedback tables, and the one ring
behind the flight recorder and the slow-query log."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.bounded import Lru, Ring


def hammer(target, threads=8):
    """Run ``target(i)`` on ``threads`` threads with a short switch interval
    (so a lost update has every chance to happen); re-raise the first
    error."""
    errors = []

    def run(i):
        try:
            target(i)
        except Exception as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Lru
# ---------------------------------------------------------------------------
class TestLru:
    def test_capacity_bound_and_eviction_order(self):
        cache = Lru(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_hit_rate(self):
        cache = Lru(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("nope")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Lru(0)

    def test_peek_neither_touches_nor_counts(self):
        cache = Lru(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1 and cache.peek("zz") is None
        cache.put("c", 3)  # a is still least recent: peek did not touch it
        assert cache.peek("a") is None
        assert cache.hits == cache.misses == 0
        assert cache.values() == [2, 3]

    def test_get_or_put(self):
        cache = Lru(2)
        made = []
        make = lambda: made.append(1) or len(made)  # noqa: E731
        assert cache.get_or_put("a", make) == 1
        assert cache.get_or_put("a", make) == 1
        assert made == [1] and (cache.hits, cache.misses) == (1, 1)
        cache.get_or_put("b", make)
        cache.get_or_put("a", make)  # refresh a: b is now least recent
        cache.get_or_put("c", make)
        assert cache.values() == [1, 3] and cache.evictions == 1

    def test_on_evict_fires_outside_the_lock(self):
        cache = Lru(2)
        fired = []

        def on_evict(key, value):
            free = cache._lock.acquire(blocking=False)
            if free:
                cache._lock.release()
            fired.append((key, value, free))

        cache.on_evict = on_evict
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get_or_put("d", lambda: 4)
        assert fired == [("a", 1, True), ("b", 2, True)]

    def test_on_evict_never_fires_on_discard_or_clear(self):
        cache = Lru(2)
        fired = []
        cache.on_evict = lambda key, value: fired.append(key)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.discard("a")
        cache.discard("missing")
        cache.clear()
        assert fired == [] and len(cache) == 0 and cache.evictions == 0

    def test_a_failing_observer_does_not_break_put(self):
        cache = Lru(1)
        cache.on_evict = lambda key, value: 1 / 0
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.values() == [2] and cache.evictions == 1

    def test_eight_thread_hammer(self):
        cache = Lru(16)
        evicted = []
        cache.on_evict = lambda key, value: evicted.append((key, value))
        gets = [0] * 8

        def work(i):
            rng = random.Random(i)
            for _ in range(2000):
                key = rng.randrange(48)
                op = rng.random()
                if op < 0.5:
                    gets[i] += 1
                    value = cache.get(key)
                    assert value is None or value == key * 10
                elif op < 0.9:
                    cache.put(key, key * 10)
                else:
                    cache.discard(key)

        hammer(work)
        assert len(cache) <= 16
        assert cache.hits + cache.misses == sum(gets)
        assert len(evicted) == cache.evictions
        assert all(value == key * 10 for key, value in evicted)
        assert all(cache.peek(value // 10) == value for value in cache.values())

    def test_racing_get_or_put_shares_one_entry(self):
        cache = Lru(4096)
        seen = [{} for _ in range(8)]

        def work(i):
            for key in range(2000):
                seen[i][key] = cache.get_or_put(key, object)

        hammer(work)
        assert all(mine == seen[0] for mine in seen)  # the same objects
        assert (cache.hits, cache.misses) == (7 * 2000, 2000)


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------
class TestRing:
    def test_capacity_and_rotation_order(self):
        ring = Ring(3)
        for i in range(5):
            ring.append(i)
        assert len(ring) == 3
        assert ring.snapshot() == [2, 3, 4]
        assert ring.snapshot(last=2) == [3, 4]
        assert ring.stats() == {
            "capacity": 3, "recorded": 5, "retained": 3, "dropped": 2,
        }

    def test_reset(self):
        ring = Ring(2)
        ring.append("x")
        ring.reset()
        assert ring.recorded == 0 and ring.snapshot() == []

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Ring(0)

    def test_eight_thread_hammer(self):
        ring = Ring(64)
        hammer(lambda i: [ring.append((i, n)) for n in range(1000)])
        assert ring.recorded == 8000 and len(ring) == 64
        # Each thread's items stay in its own append order.
        for thread in range(8):
            mine = [n for i, n in ring.snapshot() if i == thread]
            assert mine == sorted(mine)
