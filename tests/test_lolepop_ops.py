"""Direct tests of the transform LOLEPOPs (PARTITION/SORT/MERGE/SCAN/COMBINE)."""

import pytest

from repro.execution import EngineConfig, ExecutionContext
from repro.expr.nodes import ColumnRef
from repro.lolepop import (
    CombineOp,
    MergeOp,
    PartitionOp,
    ScanOp,
    SortOp,
    SourceOp,
)
from repro.lolepop.hashagg_op import HashAggTask, two_phase_aggregate
from repro.lolepop.sort_op import PERMUTATION_WIDTH_THRESHOLD
from repro.storage import Batch, TupleBuffer
from repro.types import Schema

from tests.helpers import rows_per_partition

SCHEMA = Schema.of(("k", "int64"), ("v", "float64"))


def ctx(threads=2, **kw):
    return ExecutionContext(EngineConfig(num_threads=threads, num_partitions=4, **kw))


def source(batches):
    return SourceOp(lambda: batches)


def make_batch(ks, vs):
    return Batch.from_pydict(SCHEMA, {"k": ks, "v": vs})


def run(op, context, inputs):
    return op.execute(context, inputs)


class TestPartitionOp:
    def test_hash_partitioning(self):
        c = ctx()
        src = source([make_batch([1, 2, 3], [0.1, 0.2, 0.3]),
                      make_batch([1, 4], [0.4, 0.5])])
        op = PartitionOp(src, ("k",), 4)
        buffer = run(op, c, [src.execute(c, [])])
        assert isinstance(buffer, TupleBuffer)
        assert buffer.num_rows == 5
        assert buffer.partitioned_by == ("k",)

    def scattered(self):
        """A keyed PARTITION of one-row morsels, each a run of its own: a
        partition gets one piece per row."""
        batches = [make_batch([k], [0.1 * i]) for i, k in enumerate([1, 2, 1, 3, 1, 2])]
        with rows_per_partition(1):
            return run(PartitionOp(source(batches), ("k",), 4), ctx(), [batches])

    def test_partition_leaves_the_chunk_lists(self):
        buffer = self.scattered()
        assert buffer.num_partitions == 4
        chunks = [len(p.chunks) for p in buffer.partitions]
        assert sum(chunks) == 6 and max(chunks) == 3

    @pytest.mark.parametrize("read", ["pin", "ordered_batch"])
    def test_the_first_reader_compacts(self, read):
        buffer = self.scattered()
        for partition in buffer.partitions:
            if read == "pin":
                partition.pin(keep=True)
                partition.unpin()
            else:
                partition.ordered_batch()
            assert len(partition.chunks) == 1
        assert buffer.num_rows == 6

    def test_a_hashagg_merge_item_compacts_its_partition(self):
        c = ctx()
        before, after = [], []
        region = c.parallel_for

        def spy(operator, items, fn, *args, **kwargs):
            if operator == "hashagg-merge":
                before.extend(len(p.chunks) for p in items)
            out = region(operator, items, fn, *args, **kwargs)
            if operator == "hashagg-merge":
                after.extend(len(p.chunks) for p in items)
            return out

        c.parallel_for = spy
        batches = [make_batch([k, k + 10], [1.0, 2.0]) for k in range(6)]
        with rows_per_partition(1):
            out = two_phase_aggregate(
                c, batches, ["k"], [HashAggTask("s", "sum", "v")], num_partitions=4
            )
        assert max(before) > 1 and set(after) == {1}
        assert sum(len(b) for b in out) == 12

    def test_round_robin_without_keys(self):
        c = ctx()
        batches = [make_batch([i], [0.0]) for i in range(6)]
        op = PartitionOp(source(batches), (), 3)
        with rows_per_partition(2):
            buffer = run(op, c, [batches])
        assert [p.num_rows for p in buffer.partitions] == [2, 2, 2]


class TestSortOp:
    def make_buffer(self):
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        batch = make_batch([3, 1, 2, 1], [0.3, 0.1, 0.2, 0.4])
        buffer.append_pieces(buffer.scatter_run([batch]))
        return buffer

    def test_sorts_each_partition(self):
        c = ctx()
        buffer = self.make_buffer()
        op = SortOp(source([]), [("k", False), ("v", False)])
        out = run(op, c, [buffer])
        assert out is buffer  # in place!
        for partition in buffer.partitions:
            rows = list(partition.ordered_batch().rows())
            assert rows == sorted(rows)

    def test_sets_ordering_property(self):
        c = ctx()
        buffer = self.make_buffer()
        run(SortOp(source([]), [("v", True)]), c, [buffer])
        assert buffer.ordered_by == (("v", True),)

    def test_elision_when_prefix_satisfied(self):
        c = ctx()
        buffer = self.make_buffer()
        run(SortOp(source([]), [("k", False), ("v", False)]), c, [buffer])
        work_before = c.scheduler.serial_time
        # Re-sorting by a prefix is a no-op.
        run(SortOp(source([]), [("k", False)]), c, [buffer])
        assert c.scheduler.serial_time == work_before

    def test_no_elision_when_disabled(self):
        c = ctx(elide_sorts=False)
        buffer = self.make_buffer()
        run(SortOp(source([]), [("k", False)]), c, [buffer])
        before = c.scheduler.serial_time
        run(SortOp(source([]), [("k", False)]), c, [buffer])
        assert c.scheduler.serial_time > before

    def test_permutation_mode(self):
        """Tuples of ``PERMUTATION_WIDTH_THRESHOLD`` or more columns sort
        through a permutation vector."""
        names = [f"c{i}" for i in range(PERMUTATION_WIDTH_THRESHOLD)]
        wide = Schema.of(*[(name, "int64") for name in names])
        buffer = TupleBuffer(wide, 2, ("c0",))
        batch = Batch.from_pydict(wide, {name: [3, 1, 2, 1] for name in names})
        buffer.append_pieces(buffer.scatter_run([batch]))
        run(SortOp(source([]), [("c1", False)]), ctx(), [buffer])
        assert any(p.permutation is not None for p in buffer.partitions if p.num_rows > 1)


class TestMergeOp:
    def sorted_buffer(self):
        buffer = TupleBuffer(SCHEMA, 3, ("k",))
        batch = make_batch([5, 3, 1, 4, 2, 6], [0.5, 0.3, 0.1, 0.4, 0.2, 0.6])
        buffer.append_pieces(buffer.scatter_run([batch]))
        for partition in buffer.partitions:
            partition.sort_inplace(["v"], [False])
        buffer.set_ordering((("v", False),))
        return buffer

    def test_global_order(self):
        c = ctx()
        buffer = self.sorted_buffer()
        out = run(MergeOp(source([]), [("v", False)]), c, [buffer])
        values = [v for _, v in out.partitions[0].ordered_batch().rows()]
        assert values == sorted(values)
        assert out.num_partitions == 1

    def test_limit_hint_truncates(self):
        c = ctx()
        buffer = self.sorted_buffer()
        out = run(MergeOp(source([]), [("v", False)], limit_hint=2), c, [buffer])
        assert out.num_rows == 2
        values = [v for _, v in out.partitions[0].ordered_batch().rows()]
        assert values == [0.1, 0.2]

    def test_descending_merge(self):
        c = ctx()
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        batch = make_batch([1, 2, 3, 4], [1.0, 4.0, 3.0, 2.0])
        buffer.append_pieces(buffer.scatter_run([batch]))
        for partition in buffer.partitions:
            partition.sort_inplace(["v"], [True])
        out = run(MergeOp(source([]), [("v", True)]), c, [buffer])
        values = [v for _, v in out.partitions[0].ordered_batch().rows()]
        assert values == sorted(values, reverse=True)


class TestScanOp:
    def test_stream_buffer_with_projection(self):
        c = ctx()
        buffer = TupleBuffer(SCHEMA, 1)
        buffer.partitions[0].append(make_batch([1, 2], [0.5, 1.5]))
        out_schema = Schema.of(("double_v", "float64"))
        op = ScanOp(
            source([]),
            project=[("double_v", ColumnRef("v") + ColumnRef("v"))],
            project_schema=out_schema,
        )
        batches = run(op, c, [buffer])
        assert batches[0].schema.names() == ["double_v"]
        assert batches[0].column("double_v").to_pylist() == [1.0, 3.0]

    def test_limit_offset(self):
        c = ctx()
        buffer = TupleBuffer(SCHEMA, 1)
        buffer.partitions[0].append(make_batch([1, 2, 3, 4], [1, 2, 3, 4]))
        op = ScanOp(source([]), limit=2, offset=1)
        batches = run(op, c, [buffer])
        assert [k for b in batches for k, _ in b.rows()] == [2, 3]


class TestCombineOp:
    def test_join_mode_outer_joins_groups(self):
        c = ctx()
        a = [Batch.from_pydict(
            Schema.of(("k", "int64"), ("x", "int64")), {"k": [1, 2], "x": [10, 20]}
        )]
        b = [Batch.from_pydict(
            Schema.of(("k", "int64"), ("y", "int64")), {"k": [2, 3], "y": [200, 300]}
        )]
        op = CombineOp([source(a), source(b)], key_names=["k"], mode="join")
        buffer = run(op, c, [a, b])
        rows = sorted(buffer.to_batch().rows())
        assert rows == [(1, 10, None), (2, 20, 200), (3, None, 300)]

    def test_join_mode_empty_keys_single_group(self):
        c = ctx()
        a = [Batch.from_pydict(Schema.of(("x", "int64")), {"x": [5]})]
        b = [Batch.from_pydict(Schema.of(("y", "int64")), {"y": [7]})]
        op = CombineOp([source(a), source(b)], key_names=[], mode="join")
        buffer = run(op, c, [a, b])
        assert list(buffer.to_batch().rows()) == [(5, 7)]

    def test_union_mode_null_extension_and_grouping_id(self):
        c = ctx()
        key_schema = Schema.of(("a", "int64"), ("b", "int64"))
        full = [Batch.from_pydict(
            Schema.of(("a", "int64"), ("b", "int64"), ("s", "int64")),
            {"a": [1], "b": [2], "s": [30]},
        )]
        partial = [Batch.from_pydict(
            Schema.of(("a", "int64"), ("s", "int64")), {"a": [1], "s": [99]}
        )]
        op = CombineOp(
            [source(full), source(partial)],
            key_names=["a", "b"],
            mode="union",
            union_keys=[("a", "b"), ("a",)],
            grouping_ids=[0, 1],
            union_key_schema=key_schema,
        )
        buffer = run(op, c, [full, partial])
        rows = sorted(buffer.to_batch().rows(), key=str)
        assert (1, 2, 30, 0) in rows
        assert (1, None, 99, 1) in rows
