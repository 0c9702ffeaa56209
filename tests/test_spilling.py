"""Tests for the spilling LOLEPOP variants (paper §7 future work)."""

import os

import numpy as np
import pytest

from repro import Database, EngineConfig
from repro.storage import Batch, TupleBuffer
from repro.storage.spill import SpillManager, approx_batch_bytes, approx_column_bytes
from repro.types import Schema

from tests.helpers import normalized_rows

SCHEMA = Schema.of(("k", "int64"), ("v", "float64"), ("s", "string"))


def make_batch(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return Batch.from_pydict(
        SCHEMA,
        {
            "k": [int(x) for x in rng.integers(0, 10, n)],
            "v": [float(x) for x in rng.random(n)],
            "s": [f"s{x}" for x in rng.integers(0, 5, n)],
        },
    )


class TestSpillManager:
    def test_roundtrip(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        batch = make_batch(50)
        path = manager.write_batch(batch)
        assert os.path.exists(path)
        loaded = manager.read_batch(path, SCHEMA)
        assert list(loaded.rows()) == list(batch.rows())

    def test_roundtrip_with_nulls(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        batch = Batch.from_pydict(
            SCHEMA, {"k": [1, None], "v": [None, 2.0], "s": ["a", None]}
        )
        loaded = manager.read_batch(manager.write_batch(batch), SCHEMA)
        assert list(loaded.rows()) == [(1, None, "a"), (None, 2.0, None)]

    @pytest.mark.parametrize(
        "strings",
        [
            ["", None, "", None, "x"],  # "" is a value, NULL is not
            ["naïve", "日本語", "emoji \U0001f600", "nul\x00inside", "trailing\x00"],
            [f"distinct-{i}" for i in range(300)],
            [None, None, None],
        ],
        ids=["empty_vs_null", "non_ascii", "all_distinct", "all_null"],
    )
    def test_string_roundtrip_is_exact_and_pickle_free(self, tmp_path, strings):
        manager = SpillManager(str(tmp_path))
        n = len(strings)
        batch = Batch.from_pydict(
            SCHEMA, {"k": list(range(n)), "v": [0.5] * n, "s": strings}
        )
        # A filtered partition references few of its dictionary's entries;
        # only those are written.
        keep = np.arange(n) % 2 == 0
        for piece in (batch, batch.filter(keep)):
            path = manager.write_batch(piece)
            with np.load(path, allow_pickle=False) as payload:
                assert all(payload[name].dtype != object for name in payload.files)
            loaded = manager.read_batch(path, SCHEMA)
            assert list(loaded.rows()) == list(piece.rows())
            used = {s for s in piece.column("s").to_pylist() if s is not None}
            assert len(loaded.column("s").dictionary) <= max(len(used), 1) + 1

    def test_byte_estimate_counts_codes_and_the_dictionary_once(self):
        column = Batch.from_pydict(
            SCHEMA, {"k": [0] * 1000, "v": [0.0] * 1000, "s": ["ab", "cd"] * 500}
        ).column("s")
        assert approx_column_bytes(column) == 4 * 1000 + column.dictionary.nbytes
        assert column.dictionary.nbytes < 200

    def test_byte_estimate_counts_a_shared_dictionary_once_per_buffer(self):
        # Morsel-wise appends of one all-distinct table column: every chunk
        # of every partition references the same dictionary.
        n = 4096
        batch = Batch.from_pydict(
            SCHEMA,
            {"k": list(range(n)), "v": [0.0] * n, "s": [f"distinct-{i:05d}" for i in range(n)]},
        )
        dictionary = batch.column("s").dictionary
        buffer = TupleBuffer(SCHEMA, 16, ("k",))
        for start in range(0, n, 64):
            buffer.append_partitioned(batch.slice(start, start + 64))
        assert sum(len(p.chunks) for p in buffer.partitions) > 16
        flat = n * (8 + 8 + 4)
        assert buffer.approx_bytes() == flat + dictionary.nbytes
        for partition in buffer.partitions:
            rows = partition.num_rows
            assert partition.approx_bytes() == rows * (8 + 8 + 4) + dictionary.nbytes

    def test_release_deletes(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        path = manager.write_batch(make_batch(5))
        manager.release(path)
        assert not os.path.exists(path)

    def test_cleanup_removes_own_directory(self):
        manager = SpillManager()
        manager.write_batch(make_batch(5))
        directory = manager.directory
        manager.cleanup()
        assert not os.path.exists(directory)

    def test_byte_estimate_positive(self):
        assert approx_batch_bytes(make_batch(10)) > 0


class TestBufferSpilling:
    def test_partition_spill_and_reload(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        buffer = TupleBuffer(SCHEMA, 4, ("k",))
        buffer.append_partitioned(make_batch(200))
        partition = next(p for p in buffer.partitions if p.num_rows)
        rows_before = list(partition.ordered_batch().rows())
        count = partition.num_rows
        partition.spill(manager)
        assert partition.is_spilled
        assert partition.num_rows == count  # row count survives spilling
        assert list(partition.ordered_batch().rows()) == rows_before
        assert not partition.is_spilled  # access loads it back

    def test_spill_over_budget(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        buffer = TupleBuffer(SCHEMA, 4, ("k",))
        buffer.append_partitioned(make_batch(500))
        buffer.enable_spilling(manager, memory_budget=0)
        spilled = buffer.spill_over_budget()
        assert spilled >= 1
        assert buffer.approx_bytes() == 0
        # All rows still reachable.
        assert sum(len(b) for b in buffer.scan_batches()) == 500

    def test_spilled_sort_preserves_order(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        buffer.append_partitioned(make_batch(300))
        for partition in buffer.partitions:
            partition.spill(manager)
        for partition in buffer.partitions:
            partition.sort_inplace(["k", "v"], [False, False])
            rows = list(partition.ordered_batch().rows())
            assert rows == sorted(rows)


class TestSpillingEndToEnd:
    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
        rng = np.random.default_rng(1)
        n = 3000
        database.insert(
            "t",
            {
                "g": rng.integers(0, 6, n),
                "x": rng.random(n).round(4),
                "o": rng.permutation(n),
            },
        )
        return database

    QUERIES = [
        "SELECT g, median(x), sum(x) FROM t GROUP BY g",
        "SELECT g, percentile_disc(0.25) WITHIN GROUP (ORDER BY x), "
        "percentile_disc(0.75) WITHIN GROUP (ORDER BY o) FROM t GROUP BY g",
        "SELECT g, mad(x) FROM t GROUP BY g",
        "SELECT g, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t",
        "SELECT g, x FROM t ORDER BY x LIMIT 10",
    ]

    @pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
    def test_results_identical_under_memory_pressure(self, db, sql, tmp_path):
        unconstrained = normalized_rows(db.sql(sql))
        config = EngineConfig(
            num_threads=2,
            num_partitions=8,
            memory_budget_bytes=4096,  # far below the working set
            spill_directory=str(tmp_path),
        )
        constrained = normalized_rows(db.sql(sql, config=config))
        assert constrained == unconstrained

    def test_spill_actually_happens(self, db, tmp_path):
        config = EngineConfig(
            num_threads=2,
            num_partitions=8,
            memory_budget_bytes=1024,
            spill_directory=str(tmp_path),
            collect_trace=True,
        )
        result = db.sql("SELECT g, median(x) FROM t GROUP BY g", config=config)
        assert "spill" in [r.operator for r in result.trace.records]

    def test_no_budget_means_no_spill(self, db):
        config = EngineConfig(num_threads=2, collect_trace=True)
        result = db.sql("SELECT g, median(x) FROM t GROUP BY g", config=config)
        assert "spill" not in [r.operator for r in result.trace.records]

    def test_spill_files_cleaned_up(self, db, tmp_path):
        config = EngineConfig(
            memory_budget_bytes=1024, spill_directory=str(tmp_path)
        )
        db.sql("SELECT g, median(x) FROM t GROUP BY g", config=config)
        # All per-partition files were released after loading.
        assert os.listdir(str(tmp_path)) == []


class TestConcurrentSpilling:
    """Several queries spilling at once into one configured spill root
    (each query's SpillManager isolates itself in a private subdirectory,
    so concurrent part files never collide)."""

    QUERIES = TestSpillingEndToEnd.QUERIES

    @pytest.fixture
    def db(self):
        database = Database(num_threads=2)
        database.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
        rng = np.random.default_rng(5)
        n = 4000
        database.insert(
            "t",
            {
                "g": rng.integers(0, 6, n),
                "x": rng.random(n).round(4),
                "o": rng.permutation(n),
            },
        )
        return database

    def test_managers_sharing_a_root_do_not_collide(self, tmp_path):
        from repro.storage.spill import SpillManager

        a = SpillManager(str(tmp_path))
        b = SpillManager(str(tmp_path))
        path_a = a.write_batch(make_batch(20, seed=1))
        path_b = b.write_batch(make_batch(20, seed=2))
        assert path_a != path_b  # both are "part-000001.npz" by counter
        assert a.read_batch(path_a, SCHEMA).to_pydict() != b.read_batch(
            path_b, SCHEMA
        ).to_pydict()
        a.cleanup()
        # b's file survives a's cleanup.
        assert os.path.exists(path_b)
        b.cleanup()
        assert os.listdir(str(tmp_path)) == []

    def test_concurrent_queries_spill_correctly(self, db, tmp_path):
        from repro import QueryService, ServiceConfig

        expected = {sql: normalized_rows(db.sql(sql)) for sql in self.QUERIES}
        config = EngineConfig(
            num_threads=2,
            num_partitions=8,
            memory_budget_bytes=4096,
            spill_directory=str(tmp_path),
        )
        service = QueryService(db, ServiceConfig(max_concurrent=3))
        try:
            tickets = [
                service.submit(sql, config=config, use_result_cache=False)
                for sql in self.QUERIES * 2
            ]
            # max_concurrent=3 over 10 submissions: queries overlap.
            for ticket, sql in zip(tickets, self.QUERIES * 2):
                result = ticket.result(timeout=120)
                assert normalized_rows(result) == expected[sql], sql
        finally:
            service.shutdown()
        # Every query cleaned up its private spill subdirectory.
        assert os.listdir(str(tmp_path)) == []

    def test_concurrent_spilling_actually_spills(self, db, tmp_path):
        from repro import QueryService, ServiceConfig

        config = EngineConfig(
            num_threads=2,
            num_partitions=8,
            memory_budget_bytes=1024,
            spill_directory=str(tmp_path),
            collect_trace=True,
        )
        service = QueryService(db, ServiceConfig(max_concurrent=2))
        try:
            tickets = [
                service.submit(
                    "SELECT g, median(x) FROM t GROUP BY g",
                    config=config,
                    use_result_cache=False,
                )
                for _ in range(2)
            ]
            results = [t.result(timeout=120) for t in tickets]
        finally:
            service.shutdown()
        for result in results:
            assert "spill" in [r.operator for r in result.trace.records]
        assert os.listdir(str(tmp_path)) == []
