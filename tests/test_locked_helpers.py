"""Every ``*_locked`` helper runs with its owner's lock held, and every
read-modify-write outside one takes its lock itself.

A helper named ``_x_locked`` assumes its caller took ``self._lock``; a
caller that forgets it races the helper's read-modify-writes against every
other thread, which no answer-checking test sees. Each helper is wrapped to
assert the lock is held, and the owner is driven through its public
methods until every helper has run. The metric types and the worker-pool
registry mutate under a plain ``with lock`` instead: a lock that records
its acquisitions stands in for theirs.
"""

from __future__ import annotations

import threading

from repro.bounded import Lru
from repro.execution import parallel
from repro.observability.feedback import MAX_SIGNATURES_PER_FINGERPRINT, FeedbackStore
from repro.observability.metrics import Counter, Gauge, Histogram


def _held(lock) -> bool:
    """An ``RLock`` held by this thread; a plain ``Lock`` held at all (the
    tests are single-threaded, so by this thread)."""
    is_owned = getattr(lock, "_is_owned", None)
    return is_owned() if is_owned is not None else lock.locked()


def _guard(monkeypatch, cls) -> set:
    """Wrap each ``*_locked`` method of ``cls``; returns the names called."""
    called = set()
    for name in [name for name in vars(cls) if name.endswith("_locked")]:
        helper = getattr(cls, name)

        def guarded(self, *args, _name=name, _helper=helper):
            assert _held(self._lock), f"{cls.__name__}.{_name} ran without its lock"
            called.add(_name)
            return _helper(self, *args)

        monkeypatch.setattr(cls, name, guarded)
    return called


def test_lru_helpers_run_under_its_lock(monkeypatch):
    called = _guard(monkeypatch, Lru)
    lru = Lru(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1 and lru.get("z") is None
    assert lru.get_or_put("c", lambda: 3) == 3
    assert lru.stats()["evictions"] == 1
    assert called == {"_get_locked", "_trim_locked"}


def test_feedback_store_helpers_run_under_its_lock(monkeypatch, tmp_path):
    called = _guard(monkeypatch, FeedbackStore)
    store = FeedbackStore(str(tmp_path))
    store._entries.capacity = 1
    # More signatures than a fingerprint keeps: the oldest are unindexed.
    signatures = [(f"sig{i}", float(i)) for i in range(MAX_SIGNATURES_PER_FINGERPRINT + 2)]
    store.observe("f1", "SELECT 1", signatures)
    store.observe("f2", "SELECT 2", [("sig0", 5.0)])  # evicts f1
    store.flush()
    assert store.fingerprints() == ["f2"]
    assert called == {"_index_locked", "_unindex_locked", "_flush_locked"}


class _RecordingLock:
    """A lock that counts its acquisitions and knows whether it is held."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def acquire(self, *args):
        self.acquired += 1
        return self._lock.acquire(*args)

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


def test_metric_updates_take_their_lock():
    counter, gauge, histogram = Counter(), Gauge(), Histogram()
    for metric, update in [
        (counter, lambda: counter.inc(2.0)),
        (gauge, lambda: gauge.add(-1.5)),
        (histogram, lambda: histogram.observe(0.003)),
    ]:
        metric._lock = lock = _RecordingLock()
        update()
        assert lock.acquired == 1, f"{type(metric).__name__} updated without its lock"
        assert not lock.locked()
    assert (counter.value, gauge.value) == (2.0, -1.5)
    assert (histogram.total, histogram.sum) == (1, 0.003)


def test_shared_pool_registers_under_its_lock(monkeypatch):
    lock = _RecordingLock()

    class Pools(dict):
        def __setitem__(self, key, value):
            assert lock.locked(), "shared_pool wrote _POOLS without _POOLS_LOCK"
            super().__setitem__(key, value)

    pools = Pools()
    monkeypatch.setattr(parallel, "_POOLS_LOCK", lock)
    monkeypatch.setattr(parallel, "_POOLS", pools)
    pool = parallel.shared_pool(3)
    try:
        assert parallel.shared_pool(3) is pool and pools == {3: pool}
        assert lock.acquired == 2
    finally:
        pool.shutdown()
