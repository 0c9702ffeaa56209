"""Tests for the spilling LOLEPOP variants (paper §7 future work)."""

import os

import numpy as np
import pytest

from repro import Database, EngineConfig
from repro.errors import ExecutionError
from repro.observability.metrics import executed_nodes
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
        file = manager.spill_chunks([batch])
        assert os.path.exists(file.path)
        loaded = file.read_batch(SCHEMA)
        assert list(loaded.rows()) == list(batch.rows())
        # Reading leaves the file in place and can be repeated.
        assert list(file.read_batch(SCHEMA).rows()) == list(batch.rows())
        assert manager.counters()["events"] == 1
        assert manager.counters()["loads"] == 2

    def test_roundtrip_with_nulls(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        batch = Batch.from_pydict(
            SCHEMA, {"k": [1, None], "v": [None, 2.0], "s": ["a", None]}
        )
        loaded = manager.spill_chunks([batch]).read_batch(SCHEMA)
        assert list(loaded.rows()) == [(1, None, "a"), (None, 2.0, None)]

    def test_chunk_list_is_written_column_contiguous(self, tmp_path):
        """A file written from many chunks (NULLs in only some of them,
        strings from different dictionaries) reads back as the compacted
        partition."""
        manager = SpillManager(str(tmp_path))
        chunks = [
            make_batch(7, seed=1),
            Batch.from_pydict(SCHEMA, {"k": [None, 3], "v": [1.5, None], "s": [None, "zz"]}),
            make_batch(5, seed=2),
        ]
        file = manager.spill_chunks(chunks)
        assert file.rows == 14
        assert list(file.read_batch(SCHEMA).rows()) == list(Batch.concat(chunks).rows())

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
            written = manager.counters()["bytes_written"]
            file = manager.spill_chunks([piece])
            # Raw segments back to back: no container, no header, no pickle.
            assert os.path.getsize(file.path) == file.size
            assert file.size == manager.counters()["bytes_written"] - written
            loaded = file.read_batch(SCHEMA)
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
            buffer.append_pieces(buffer.scatter_run([batch.slice(start, start + 64)]))
        assert sum(len(p.chunks) for p in buffer.partitions) > 16
        flat = n * (8 + 8 + 4)
        assert buffer.approx_bytes() == flat + dictionary.nbytes
        for partition in buffer.partitions:
            rows = partition.num_rows
            assert partition.approx_bytes() == rows * (8 + 8 + 4) + dictionary.nbytes

    def test_release_deletes(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        file = manager.spill_chunks([make_batch(5)])
        manager.release(file)
        assert not os.path.exists(file.path)
        assert manager.counters()["release_failures"] == 0

    def test_release_failure_is_counted(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        file = manager.spill_chunks([make_batch(5)])
        os.unlink(file.path)
        os.mkdir(file.path)  # unlink() of a directory fails
        manager.release(file)
        assert manager.counters()["release_failures"] == 1
        manager.cleanup()  # the leaked entry keeps the directory alive
        assert manager.counters()["release_failures"] == 2
        os.rmdir(file.path)
        manager.cleanup()
        assert not os.path.exists(manager.directory)

    def test_cleanup_removes_own_directory(self):
        manager = SpillManager()
        manager.spill_chunks([make_batch(5)])
        directory = manager.directory
        manager.cleanup()
        assert not os.path.exists(directory)
        manager.cleanup()  # idempotent
        assert manager.counters()["release_failures"] == 0

    def test_byte_estimate_positive(self):
        assert approx_batch_bytes(make_batch(10)) > 0


class TestBufferSpilling:
    def test_partition_spill_and_reload(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        buffer = TupleBuffer(SCHEMA, 4, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch(200)]))
        partition = next(p for p in buffer.partitions if p.num_rows)
        rows_before = list(partition.ordered_batch().rows())
        count = partition.num_rows
        partition.spill(manager)
        assert partition.is_spilled
        assert partition.approx_bytes() == 0
        assert partition.num_rows == count  # row count survives spilling
        assert list(partition.ordered_batch().rows()) == rows_before
        assert list(partition.compact().rows()) == rows_before
        # Reading is transient: the partition stays spilled, nothing is
        # written again.
        assert partition.is_spilled and partition.approx_bytes() == 0
        assert manager.counters()["events"] == 1

    def test_spill_over_budget(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        buffer = TupleBuffer(SCHEMA, 4, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch(500)]))
        buffer.enable_spilling(manager, memory_budget=0)
        spilled = buffer.spill_over_budget()
        assert spilled >= 1
        assert buffer.approx_bytes() == 0
        # All rows still reachable.
        assert sum(len(b) for b in buffer.scan_batches()) == 500

    def test_spilled_sort_preserves_order(self, tmp_path):
        manager = SpillManager(str(tmp_path))
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch(300)]))
        for partition in buffer.partitions:
            partition.spill(manager)
        for partition in buffer.partitions:
            physical = list(partition.compact().rows())
            written = manager.counters()["bytes_written"]
            partition.sort_permutation(["k", "v"], [False, False])
            rows = list(partition.ordered_batch().rows())
            assert rows == sorted(rows)
            # Only the permutation vector was appended; tuples did not move.
            assert manager.counters()["bytes_written"] - written == 8 * len(rows)
            assert list(partition.compact().rows()) == physical
            with pytest.raises(ExecutionError):
                partition.sort_inplace(["k"], [False])


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
        assert "spill" in [r.name for r in result.trace.records]

    def test_no_budget_means_no_spill(self, db):
        config = EngineConfig(num_threads=2, collect_trace=True)
        result = db.sql("SELECT g, median(x) FROM t GROUP BY g", config=config)
        assert "spill" not in [r.name for r in result.trace.records]

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
        file_a = a.spill_chunks([make_batch(20, seed=1)])
        file_b = b.spill_chunks([make_batch(20, seed=2)])
        assert file_a.name == file_b.name  # both "part-000001.bin" by counter
        assert file_a.path != file_b.path
        assert file_a.read_batch(SCHEMA).to_pydict() != file_b.read_batch(
            SCHEMA
        ).to_pydict()
        a.cleanup()
        # b's file survives a's cleanup.
        assert os.path.exists(file_b.path)
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
            assert "spill" in [r.name for r in result.trace.records]
        assert os.listdir(str(tmp_path)) == []


# ----------------------------------------------------------------------
# The budget is a bound
# ----------------------------------------------------------------------
def _operator_classes():
    from repro.lolepop.base import Lolepop

    found, stack = [], [Lolepop]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "execute" in vars(cls):
            found.append(cls)
    return found


class TestBudgetIsABound:
    """What ``memory_budget_bytes`` promises: the loaded bytes a budgeted
    buffer holds between work items stay within it, and a chain item loads
    at most one spilled partition, once. (PARTITION's input stream is
    outside the promise: it is materialized operator-at-a-time before it is
    scattered.)"""

    BUDGET = 4096
    QUERIES = [
        # two ordering groups sharing one buffer: SORT, WINDOW, SORT, WINDOW
        "SELECT g, rank() OVER (PARTITION BY g ORDER BY x, o) AS r, "
        "sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t",
        # window, then ORDAGG over the same buffer
        "SELECT g, median(x - median(x)) FROM t GROUP BY g",
        "SELECT g, percentile_disc(0.25) WITHIN GROUP (ORDER BY x), "
        "percentile_disc(0.75) WITHIN GROUP (ORDER BY o) FROM t GROUP BY g",
        "SELECT g, x FROM t ORDER BY x LIMIT 10",
        # the window buffer leaves its chain into a MERGE: the write-back
        "SELECT g, x, rank() OVER (PARTITION BY g ORDER BY x) AS r FROM t "
        "ORDER BY g, x LIMIT 20",
    ]
    #: The queries whose buffer a MERGE reads after the chain; every other
    #: chain ends in a SCAN or an ORDAGG and reads each spilled partition once.
    LEAVE_THE_CHAIN = frozenset(QUERIES[3:])

    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
        rng = np.random.default_rng(3)
        n = 4000
        database.insert(
            "t",
            {"g": rng.integers(0, 40, n), "x": rng.random(n).round(4), "o": rng.permutation(n)},
        )
        return database

    @pytest.mark.parametrize(
        "mode",
        [{}, {"execution_mode": "parallel", "num_threads": 4}],
        ids=["serial", "parallel4"],
    )
    def test_loaded_bytes_stay_within_the_budget(
        self, db, tmp_path, monkeypatch, mode
    ):
        import threading

        from repro.execution.context import ExecutionContext

        budgeted, violations, regions = [], [], set()
        reading = {}  # worker thread -> partition files it read in this item

        def check(where):
            for buffer in budgeted:
                loaded = buffer.approx_bytes()
                if loaded > self.BUDGET:
                    violations.append(f"{where}: {loaded} bytes loaded")

        enable = TupleBuffer.enable_spilling

        def enable_and_register(buffer, manager, memory_budget):
            budgeted.append(buffer)
            enable(buffer, manager, memory_budget)

        def observe_reads(operation, path):
            if operation == "read":
                reading.setdefault(threading.get_ident(), set()).add(path)

        parallel_for = ExecutionContext.parallel_for

        def checked_parallel_for(ctx, operator, items, fn, steps=None):
            if steps is None:
                return parallel_for(ctx, operator, items, fn)
            regions.update(name for name, _ in steps)

            def item(value):
                reading.pop(threading.get_ident(), None)
                result = fn(value)
                files = reading.pop(threading.get_ident(), set())
                if len(files) > 1:
                    violations.append(f"{operator}: one item read {sorted(files)}")
                check(f"after a {operator} item")
                return result

            return parallel_for(ctx, operator, items, item, steps)

        monkeypatch.setattr(TupleBuffer, "enable_spilling", enable_and_register)
        monkeypatch.setattr(SpillManager, "io_hook", staticmethod(observe_reads))
        monkeypatch.setattr(ExecutionContext, "parallel_for", checked_parallel_for)
        for cls in _operator_classes():

            def execute(op, ctx, inputs, _execute=cls.execute, _name=cls.__name__):
                result = _execute(op, ctx, inputs)
                check(f"after {_name}.execute")
                return result

            monkeypatch.setattr(cls, "execute", execute)

        config = EngineConfig(
            num_partitions=8, morsel_size=512, memory_budget_bytes=self.BUDGET,
            spill_directory=str(tmp_path), **mode,
        )
        for sql in self.QUERIES:
            expected = normalized_rows(db.sql(sql, engine="naive"))
            result = db.sql(sql, config=config)
            assert normalized_rows(result) == expected
            assert result.spill["bytes_written"] > 0, sql
            if sql not in self.LEAVE_THE_CHAIN:
                # One load per spilled partition, no write after PARTITION's.
                assert result.spill["bytes_read"] <= result.spill["bytes_written"], sql
        assert budgeted and {"sort", "window", "ordagg", "scan"} <= regions
        assert violations == []

    def test_a_loaded_partition_that_outgrows_its_share_spills_itself(self, tmp_path):
        """Half the buffer fits the budget and stays loaded; WINDOW then
        widens every partition, and the loaded ones go to disk at the end of
        their own chain items instead of breaking the bound."""
        self._widen_every_partition(tmp_path, keep=True)

    def test_a_partition_without_a_later_reader_is_released(self, tmp_path):
        """The same, but no reader after the chain needs the buffer: a
        loaded partition over its share is released instead of written, and
        a spilled one appends nothing to its file and is released too."""
        self._widen_every_partition(tmp_path, keep=False)

    def _widen_every_partition(self, tmp_path, keep):
        manager = SpillManager(str(tmp_path))
        buffer = TupleBuffer(SCHEMA, 4, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch(400)]))
        budget = buffer.approx_bytes() // 2
        buffer.enable_spilling(manager, budget)
        spilled = buffer.spill_over_budget()
        assert 0 < spilled < 4 and buffer.approx_bytes() <= budget
        loaded = [p for p in buffer.partitions if not p.is_spilled]
        tuples_written = manager.counters()["bytes_written"]
        wide = Schema.of(
            ("k", "int64"), ("v", "float64"), ("s", "string"),
            ("a", "float64"), ("b", "float64"), ("c", "float64"),
        )
        for partition in buffer.partitions:
            rows = partition.num_rows
            column = Batch.from_pydict(
                Schema.of(("a", "float64")), {"a": [0.5] * rows}
            ).columns[0]
            partition.pin(keep)
            partition.append_columns(wide, [column, column, column])
            partition.unpin()
            assert buffer.approx_bytes() <= budget
        buffer.columns_appended(wide)
        assert any(p.is_spilled for p in loaded)
        assert sum(p.num_rows for p in buffer.partitions) == 400
        if keep:
            assert manager.counters()["bytes_written"] > tuples_written
            assert sum(len(b) for b in buffer.scan_batches()) == 400
            assert buffer.scan_batches()[0].schema == wide
        else:
            assert manager.counters()["bytes_written"] == tuples_written
            assert os.listdir(manager.directory) == []
            with pytest.raises(ExecutionError, match="released"):
                buffer.scan_batches()

    def test_partition_counts_the_buffer_it_built(self, db, tmp_path):
        """A PARTITION over a 64 KiB budget spills part of its buffer, yet
        it materialized all of it: the bytes that entered it."""
        config = EngineConfig(
            num_partitions=8, memory_budget_bytes=64 * 1024, spill_directory=str(tmp_path),
            collect_trace=True,
        )
        result = db.sql(
            "SELECT g, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t", config=config
        )
        (partition,) = [
            node for _, _, node in executed_nodes(result.dags) if node.name() == "PARTITION"
        ]
        assert partition.span.attrs["extra"]["spilled_partitions"] > 0
        assert partition.span.attrs["bytes_materialized"] == 4000 * 3 * 8
        assert partition.span.attrs["bytes_materialized"] == result.spill["partition_input_bytes"]

    def test_read_only_consumers_write_nothing(self, db, tmp_path):
        """A chain that ends in ORDAGG or SCAN leaves no reader of its
        buffer: its steps write nothing (no permutation vector, no window
        column), and each spilled partition is read once, by the first
        step."""
        config = EngineConfig(
            num_partitions=8, memory_budget_bytes=1024, spill_directory=str(tmp_path),
            collect_trace=True,
        )
        result = db.sql(
            "SELECT g, percentile_disc(0.5) WITHIN GROUP (ORDER BY x) FROM t GROUP BY g",
            config=config,
        )
        windowed = db.sql(
            "SELECT g, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t", config=config
        )
        def by_operator(run):
            return {node.name(): node.span.attrs for _, _, node in executed_nodes(run.dags)}

        ordered, window = by_operator(result), by_operator(windowed)
        for stats in (ordered["SORT"], ordered["ORDAGG"], window["SORT"],
                      window["WINDOW"], window["SCAN"]):
            assert stats["spill_bytes_written"] == 0
        for stats in (ordered["ORDAGG"], window["WINDOW"], window["SCAN"]):
            assert stats["spill_bytes_read"] == 0
        # The tuples, once: (g, x) for the ORDAGG, (g, x, o) for the window.
        assert result.spill["bytes_written"] == 4000 * 2 * 8
        assert windowed.spill["bytes_written"] == 4000 * 3 * 8
        for run, stats in ((result, ordered["SORT"]), (windowed, window["SORT"])):
            assert stats["spill_bytes_read"] == run.spill["bytes_read"]
            assert run.spill["bytes_read"] == run.spill["bytes_written"]


# ----------------------------------------------------------------------
# Fault injection through SpillManager.io_hook
# ----------------------------------------------------------------------
class _Fault:
    """Counts ``operation``s; raises ``OSError`` on the ``nth``."""

    def __init__(self, operation, nth=None):
        self.operation, self.nth, self.seen = operation, nth, 0

    def __call__(self, operation, path):
        if operation == self.operation:
            self.seen += 1
            if self.seen == self.nth:
                raise OSError(5, f"injected {operation} failure")


class TestSpillFaults:
    """Every ``open`` / ``write`` / ``read`` a statement issues fails in
    turn: PARTITION's spill, the chain item's one load and, where a MERGE
    reads the buffer after the chain, the chain's write-back and the
    MERGE's reads."""

    SQL = "SELECT g, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t"
    WRITE_BACK_SQL = (
        "SELECT g, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS c FROM t "
        "ORDER BY g, x LIMIT 50"
    )

    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table("t", {"g": "int64", "x": "float64", "o": "int64"})
        rng = np.random.default_rng(1)
        n = 2000
        database.insert(
            "t",
            {"g": rng.integers(0, 6, n), "x": rng.random(n).round(4), "o": rng.permutation(n)},
        )
        return database

    def config(self, tmp_path, **knobs):
        return EngineConfig(
            num_partitions=4, memory_budget_bytes=1024, spill_directory=str(tmp_path), **knobs
        )

    def count(self, db, tmp_path, monkeypatch, operation, sql):
        counter = _Fault(operation)
        monkeypatch.setattr(SpillManager, "io_hook", staticmethod(counter))
        db.sql(sql, config=self.config(tmp_path))
        assert counter.seen >= 3
        return counter.seen

    @pytest.mark.parametrize("operation", ["open", "write", "read"])
    @pytest.mark.parametrize(
        "mode",
        [{}, {"execution_mode": "parallel", "num_threads": 4}],
        ids=["serial", "parallel4"],
    )
    def test_io_error_is_typed_and_leaves_nothing_behind(
        self, db, tmp_path, monkeypatch, operation, mode
    ):
        from repro.errors import SpillError

        for sql in (self.SQL, self.WRITE_BACK_SQL):
            expected = normalized_rows(db.sql(sql))
            total = self.count(db, tmp_path, monkeypatch, operation, sql)
            for nth in range(1, total + 1):
                fault = _Fault(operation, nth)
                monkeypatch.setattr(SpillManager, "io_hook", staticmethod(fault))
                with pytest.raises(SpillError) as raised:
                    db.sql(sql, config=self.config(tmp_path, **mode))
                assert isinstance(raised.value, ExecutionError)
                assert "part-0" in str(raised.value)  # names the partition file
                assert "injected" in str(raised.value)
                assert os.listdir(str(tmp_path)) == []  # no file, no query-* directory
                # The hook stays installed (its count is past nth): the next
                # query on the same database spills again and answers.
                follow = db.sql(sql, config=self.config(tmp_path, **mode))
                assert normalized_rows(follow) == expected
                assert follow.spill["events"] > 0 and follow.spill["release_failures"] == 0

    @pytest.mark.parametrize("operation", ["open", "write", "read"])
    def test_failed_query_releases_its_admission_reservation(
        self, db, tmp_path, monkeypatch, operation
    ):
        from repro import QueryService, ServiceConfig
        from repro.errors import SpillError

        config = self.config(tmp_path)
        service = QueryService(db, ServiceConfig(max_concurrent=1))
        try:
            for sql in (self.SQL, self.WRITE_BACK_SQL):
                expected = normalized_rows(db.sql(sql))
                total = self.count(db, tmp_path, monkeypatch, operation, sql)
                for nth in range(1, total + 1):
                    monkeypatch.setattr(
                        SpillManager, "io_hook", staticmethod(_Fault(operation, nth))
                    )
                    failed = service.submit(sql, config=config, use_result_cache=False)
                    with pytest.raises(SpillError):
                        failed.result(timeout=60)
                    assert failed.state == "failed"
                    stats = service.stats()
                    assert stats["running"] == 0 and stats["reserved_bytes"] == 0
                    assert os.listdir(str(tmp_path)) == []
                    follow = service.submit(sql, config=config, use_result_cache=False)
                    assert normalized_rows(follow.result(timeout=60)) == expected
        finally:
            service.shutdown()
        assert os.listdir(str(tmp_path)) == []

    def test_truncated_file_is_detected_by_length(self, tmp_path):
        from repro.errors import SpillError

        manager = SpillManager(str(tmp_path))
        file = manager.spill_chunks([make_batch(50)])
        os.truncate(file.path, file.size - 1)
        with pytest.raises(SpillError, match=r"part-000001\.bin is truncated: .* bytes on disk"):
            file.read_batch(SCHEMA)
        manager.cleanup()

    def test_file_cut_short_while_being_read(self, db, tmp_path, monkeypatch):
        """The length check passed and then the file shrank: the short read
        is reported as such, no half-filled array reaches a kernel."""
        from repro.errors import SpillError

        seen = []

        def truncate_on_third_read(operation, path):
            if operation == "read":
                seen.append(path)
                if len(seen) == 3:
                    os.truncate(path, 0)

        monkeypatch.setattr(
            SpillManager, "io_hook", staticmethod(truncate_on_third_read)
        )
        with pytest.raises(SpillError, match="truncated: short read"):
            db.sql(self.SQL, config=self.config(tmp_path))
        assert os.listdir(str(tmp_path)) == []
