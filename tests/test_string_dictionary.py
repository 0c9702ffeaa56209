"""Dictionary-encoded string columns: decoding invariants, order and hash
per entry, collision freedom, and snapshot safety under appends."""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro import Database, EngineConfig
from repro.storage import Column, keys
from repro.storage import dictionary as dictionary_mod
from repro.storage.dictionary import EMPTY, StringDictionary, fnv1a, object_array
from repro.types import DataType

from tests.helpers import assert_engines_agree, normalized_rows

ALPHABET = ["", "a", "b", "ab", "Zebra", "zebra", "ünï", "日本", "x" * 40, " "]


def _shapes():
    rng = random.Random(15)
    n = 60
    yield "empty_column", []
    yield "one_distinct", ["same"] * n
    yield "all_distinct", [f"v{i:03d}" for i in rng.sample(range(n), n)]
    yield "mixed", [rng.choice(ALPHABET) for _ in range(n)]
    yield "with_nulls", [rng.choice(ALPHABET + [None, None]) for _ in range(n)]
    yield "all_null", [None] * 7


SHAPES = list(_shapes())


@pytest.mark.parametrize("values", [v for _, v in SHAPES], ids=[k for k, _ in SHAPES])
class TestDecodingCommutes:
    def test_roundtrip_and_invariants(self, values):
        col = Column.from_values(DataType.STRING, values)
        assert col.to_pylist() == values
        assert col.data.dtype == np.int32
        assert len(col.dictionary) >= 1
        assert len(set(col.dictionary.strings.tolist())) == len(col.dictionary)
        if len(col):
            assert 0 <= col.data.min() and col.data.max() < len(col.dictionary)
        assert col.values.dtype == object

    def test_take_filter_slice_copy(self, values):
        col = Column.from_values(DataType.STRING, values)
        rng = np.random.default_rng(3)
        n = len(values)
        indices = rng.integers(0, n, 2 * n) if n else np.empty(0, dtype=np.int64)
        mask = rng.random(n) < 0.5
        assert col.take(indices).to_pylist() == [values[i] for i in indices]
        assert col.filter(mask).to_pylist() == [v for v, m in zip(values, mask) if m]
        assert col.slice(2, n - 1).to_pylist() == values[2 : max(n - 1, 0)]
        assert col.copy().to_pylist() == values
        for derived in (col.take(indices), col.filter(mask), col.slice(0, n), col.copy()):
            assert derived.dictionary is col.dictionary  # carried by reference

    def test_concat_with_other_dictionaries(self, values):
        col = Column.from_values(DataType.STRING, values)
        other_values = ["new", "a", None, "日本", "new"]
        other = Column.from_values(DataType.STRING, other_values)
        nulls = Column.nulls(DataType.STRING, 2)
        merged = Column.concat([col, other, nulls, col])
        assert merged.to_pylist() == values + other_values + [None, None] + values
        entries = merged.dictionary.strings.tolist()
        assert len(set(entries)) == len(entries)

    def test_rank_sorts_like_python(self, values):
        present = [v for v in values if v is not None]
        col = Column.from_values(DataType.STRING, present)
        order = np.argsort(col.dictionary.rank[col.data], kind="stable")
        assert [present[i] for i in order] == sorted(present)
        assert col.dictionary.order[col.dictionary.rank].tolist() == list(
            range(len(col.dictionary))
        )

    def test_equal_strings_partition_alike_in_any_dictionary(self, values):
        col = Column.from_values(DataType.STRING, values)
        # The same rows encoded against a dictionary with other entries in
        # another order.
        padded = Column.from_values(DataType.STRING, ["zz", "pad"] + values[::-1])
        twin = padded.take(np.arange(len(values) + 1, 1, -1))
        assert twin.to_pylist() == values
        if values:
            assert twin.dictionary is not col.dictionary
        for parts in (2, 7, 64):
            assert np.array_equal(
                keys.partition_ids([col], parts), keys.partition_ids([twin], parts)
            )


def test_fnv1a_matches_the_byte_loop():
    def reference(text: str) -> int:
        value = 0xCBF29CE484222325
        for byte in text.encode("utf-8"):
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return value & 0x7FFFFFFFFFFFFFFF

    strings = ALPHABET + [f"Customer#{i:09d}" for i in range(50)]
    assert fnv1a(strings).tolist() == [reference(s) for s in strings]
    assert fnv1a([]).tolist() == []


class TestUnify:
    def test_disjoint_and_overlapping(self):
        left = StringDictionary(object_array(["a", "b", "c"]))
        right = StringDictionary(object_array(["c", "x", "a", "y"]))
        merged, mapping = left.unify(right)
        assert merged.strings[:3].tolist() == ["a", "b", "c"]
        assert merged.strings[mapping].tolist() == right.strings.tolist()
        assert left.is_prefix_of(merged)

    def test_subset_needs_no_new_dictionary(self):
        left = StringDictionary(object_array(["a", "b", "c"]))
        merged, mapping = left.unify(StringDictionary(object_array(["c", "a"])))
        assert merged is left and mapping.tolist() == [2, 0]

    def test_prefix_extension_is_free_both_ways(self):
        base = StringDictionary(object_array(["a", "b"]))
        longer = base.extended(["c"])
        assert base.unify(longer) == (longer, None)
        assert longer.unify(base) == (longer, None)
        assert longer.translate(base) is None

    def test_empty_unifies_with_anything_for_free(self):
        some = StringDictionary(object_array(["q"]))
        assert EMPTY.unify(some) == (some, None)
        assert some.unify(EMPTY) == (some, None)

    def test_extension_of_an_old_snapshot_does_not_fork_the_index(self):
        base = StringDictionary(object_array(["a", "b"]))
        first = base.extended(["x"])
        second = base.extended(["y"])  # base is no longer the newest
        assert first.strings.tolist() == ["a", "b", "x"]
        assert second.strings.tolist() == ["a", "b", "y"]
        assert not first.is_prefix_of(second) and not second.is_prefix_of(first)
        # Neither sees the other's extension through the shared index.
        assert first.translate(StringDictionary(object_array(["y", "x"]))).tolist() == [-1, 2]
        assert second.translate(StringDictionary(object_array(["y", "x"]))).tolist() == [2, -1]
        assert base.translate(StringDictionary(object_array(["x", "y", "b"]))).tolist() == [-1, -1, 1]

    def test_hash_extends_incrementally(self):
        base = StringDictionary(object_array(["a", "b"]))
        expected = fnv1a(["a", "b", "c"]).tolist()
        assert base.hash.tolist() == expected[:2]
        assert base.extended(["c"]).hash.tolist() == expected


def test_concurrent_extension_keeps_every_mapping_exact():
    """More extenders than cores on one base dictionary: whichever wins the
    shared index, every result decodes its own codes correctly."""
    base = StringDictionary(object_array([f"base{i}" for i in range(50)]))
    results = {}
    failures = []

    def extend(worker: int) -> None:
        try:
            for round_ in range(40):
                mine = StringDictionary(
                    object_array([f"w{worker}r{round_}", "base7", f"w{worker}"])
                )
                results[(worker, round_)] = (mine, *base.unify(mine))
        except Exception as error:  # surfaced below; a thread cannot fail a test
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(results) == 8 * 40
    for mine, merged, mapping in results.values():
        assert merged.strings[:50].tolist() == base.strings.tolist()
        assert merged.strings[mapping].tolist() == mine.strings.tolist()
        assert len(set(merged.strings.tolist())) == len(merged)


# ----------------------------------------------------------------------
# Appends: a snapshot a reader holds stays valid while a writer extends
# ----------------------------------------------------------------------
def test_append_with_new_strings_leaves_scanned_snapshots_valid():
    db = Database()
    table = db.create_table("t", {"s": "string", "v": "int64"})
    first = [f"s{i % 9}" for i in range(640)]
    db.insert("t", {"s": first, "v": list(range(640))})
    snapshot = table.to_batch()
    old = snapshot.column("s")
    for round_ in range(3):
        fresh = [f"new{round_}_{i % 5}" for i in range(64)]
        db.insert("t", {"s": fresh, "v": [0] * 64})
        first_rows = db.sql(
            "SELECT s, count(*), sum(v) FROM t GROUP BY s",
            config=EngineConfig(num_threads=4, num_partitions=4, execution_mode="parallel"),
        )
        assert normalized_rows(first_rows) == normalized_rows(
            db.sql("SELECT s, count(*), sum(v) FROM t GROUP BY s", engine="naive")
        )
        # The reader's column still decodes what it scanned ...
        assert old.to_pylist() == first
        assert old.dictionary is snapshot.column("s").dictionary
        # ... and its codes are valid, unchanged, in the grown dictionary.
        now = table.column("s")
        assert old.dictionary.is_prefix_of(now.dictionary)
        assert np.array_equal(now.data[:640], old.data)


def test_append_of_known_strings_reuses_the_dictionary():
    db = Database()
    table = db.create_table("t", {"s": "string"})
    db.insert("t", {"s": ["a", "b", "c"] * 10})
    before = table.column("s").dictionary
    db.insert("t", {"s": ["c", "a"] * 32})
    assert table.column("s").dictionary is before


# ----------------------------------------------------------------------
# The hash only ever chooses a partition
# ----------------------------------------------------------------------
@pytest.fixture
def colliding_hash(monkeypatch):
    """Every string hashes alike: a hash that decided equality anywhere
    would now conflate all keys."""
    monkeypatch.setattr(
        dictionary_mod, "fnv1a", lambda strings: np.zeros(len(strings), dtype=np.int64)
    )


@pytest.fixture
def two_tables():
    db = Database()
    db.create_table("a", {"name": "string", "x": "int64"})
    db.create_table("b", {"name": "string", "y": "int64"})
    rng = random.Random(4)
    left = [f"n{rng.randrange(12)}" for _ in range(300)]
    right = [f"n{rng.randrange(6, 20)}" for _ in range(200)]
    db.insert("a", {"name": left, "x": list(range(300))})
    db.insert("b", {"name": right + [None], "y": list(range(201))})
    return db


COLLISION_QUERIES = [
    "SELECT a.name, a.x, b.y FROM a JOIN b ON a.name = b.name",
    "SELECT name, count(*), sum(x) FROM a GROUP BY name",
    "SELECT name, x, sum(x) OVER (PARTITION BY name ORDER BY x) AS s FROM a",
    "SELECT name, count(*) FROM (SELECT name FROM a UNION ALL SELECT name FROM b) AS u "
    "GROUP BY name",
]


@pytest.mark.parametrize("sql", COLLISION_QUERIES)
def test_colliding_hashes_never_conflate_keys(colliding_hash, two_tables, sql):
    assert two_tables.table("a").column("name").dictionary.hash.max() == 0
    config = EngineConfig(num_threads=2, num_partitions=4)
    assert_engines_agree(two_tables, sql, config=config)


# ----------------------------------------------------------------------
# No object-array sort in the data plane
# ----------------------------------------------------------------------
def test_data_plane_never_sorts_an_object_array(monkeypatch):
    from repro.bench.corpora.star import DS_QUERIES, populate_star

    db = Database()
    populate_star(db, scale_factor=0.01)
    real_unique, real_argsort = np.unique, np.argsort
    offenders = []

    def watched_unique(ar, *args, **kwargs):
        if np.asarray(ar).dtype == object:
            offenders.append("np.unique")
        return real_unique(ar, *args, **kwargs)

    def watched_argsort(a, *args, **kwargs):
        # The one allowed object sort: a dictionary ranking its own entries.
        if np.asarray(a).dtype == object and len(a) > 64:
            offenders.append("np.argsort")
        return real_argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", watched_unique)
    monkeypatch.setattr(np, "argsort", watched_argsort)
    for name in ("ds1_rollup_region_state", "ds3_grouping_sets_lattice",
                 "ds8_case_bands_rollup"):
        assert len(db.sql(DS_QUERIES[name]).batch) > 0
    assert offenders == []
