"""Unit tests for the tuple buffer (the paper's central data structure)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.storage import Batch, TupleBuffer
from repro.storage.keys import partition_ids
from repro.types import DataType, Schema
from repro.storage.column import Column

SCHEMA = Schema.of(("k", "int64"), ("v", "float64"))


def make_batch(ks, vs):
    return Batch.from_pydict(SCHEMA, {"k": ks, "v": vs})


class TestPartitioning:
    def test_rows_preserved(self):
        buffer = TupleBuffer(SCHEMA, 4, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch([1, 2, 3, 4, 5], [0.1] * 5)]))
        assert buffer.num_rows == 5

    def test_keys_stay_partition_local(self):
        buffer = TupleBuffer(SCHEMA, 4, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch([7, 8, 7, 9, 7], [0.0] * 5)]))
        for partition in buffer.partitions:
            if partition.num_rows == 0:
                continue
            ks = set(partition.compact().column("k").to_pylist())
            for k in ks:
                expected = partition_ids(
                    [Column.from_values(DataType.INT64, [k])], 4
                )[0]
                assert buffer.partitions[expected] is partition

    def test_unpartitioned_goes_to_partition_zero(self):
        buffer = TupleBuffer(SCHEMA, 4)
        buffer.append_pieces(buffer.scatter_run([make_batch([1, 2], [0.0, 0.0])]))
        assert buffer.partitions[0].num_rows == 2

    def test_zero_partitions_rejected(self):
        with pytest.raises(ExecutionError):
            TupleBuffer(SCHEMA, 0)


class TestChunkLists:
    def test_compaction_merges_chunks(self):
        buffer = TupleBuffer(SCHEMA, 1)
        buffer.partitions[0].append(make_batch([1], [0.1]))
        buffer.partitions[0].append(make_batch([2], [0.2]))
        assert len(buffer.partitions[0].chunks) == 2
        chunk = buffer.partitions[0].compact()
        assert len(chunk) == 2
        assert buffer.partitions[0].chunks == [chunk]

    def test_empty_partition_compacts_to_empty_chunk(self):
        buffer = TupleBuffer(SCHEMA, 1)
        assert len(buffer.partitions[0].compact()) == 0

    def test_append_after_permutation_rejected(self):
        buffer = TupleBuffer(SCHEMA, 1)
        buffer.partitions[0].append(make_batch([2, 1], [0.1, 0.2]))
        buffer.partitions[0].sort_permutation(["k"], [False])
        with pytest.raises(ExecutionError):
            buffer.partitions[0].append(make_batch([3], [0.3]))


class TestSortAccessPaths:
    def test_inplace_and_permutation_agree(self):
        data = ([3, 1, 2, 1], [0.3, 0.1, 0.2, 0.15])
        a = TupleBuffer(SCHEMA, 1)
        a.partitions[0].append(make_batch(*data))
        a.partitions[0].sort_inplace(["k", "v"], [False, False])
        b = TupleBuffer(SCHEMA, 1)
        b.partitions[0].append(make_batch(*data))
        b.partitions[0].sort_permutation(["k", "v"], [False, False])
        assert list(a.partitions[0].ordered_batch().rows()) == list(
            b.partitions[0].ordered_batch().rows()
        )

    def test_permutation_keeps_key_cache(self):
        buffer = TupleBuffer(SCHEMA, 1)
        buffer.partitions[0].append(make_batch([2, 1], [0.2, 0.1]))
        buffer.partitions[0].sort_permutation(["k"], [False])
        assert "k" in buffer.partitions[0].key_cache
        assert buffer.partitions[0].key_cache["k"].to_pylist() == [1, 2]


class TestOrderingProperty:
    def test_prefix_satisfaction(self):
        buffer = TupleBuffer(SCHEMA, 1)
        buffer.set_ordering((("k", False), ("v", False)))
        assert buffer.ordering_satisfies((("k", False),))
        assert buffer.ordering_satisfies((("k", False), ("v", False)))
        assert not buffer.ordering_satisfies((("v", False),))
        assert not buffer.ordering_satisfies((("k", True),))
        assert not buffer.ordering_satisfies(
            (("k", False), ("v", False), ("k", False))
        )


class TestAddColumns:
    EXTENDED = Schema.of(("k", "int64"), ("v", "float64"), ("rn", "int64"))

    def test_window_write_back(self):
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        batch = make_batch([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4])
        buffer.append_pieces(buffer.scatter_run([batch]))
        for partition in buffer.partitions:
            n = partition.num_rows
            partition.append_columns(
                self.EXTENDED, [Column.from_values(DataType.INT64, list(range(n)))]
            )
        buffer.columns_appended(self.EXTENDED)
        assert buffer.schema.names() == ["k", "v", "rn"]
        assert buffer.num_rows == 4

    def test_write_back_is_in_logical_order_and_moves_no_tuple(self):
        """Columns are handed over in sort order; under a permutation vector
        they are scattered back to the physical order it indexes."""
        buffer = TupleBuffer(SCHEMA, 1)
        partition = buffer.partitions[0]
        partition.append(make_batch([3, 1, 2], [0.3, 0.1, 0.2]))
        partition.sort_permutation(["k"], [False])
        physical = partition.compact()
        partition.append_columns(
            self.EXTENDED, [Column.from_values(DataType.INT64, [10, 20, 30])]
        )
        assert partition.compact().columns[0] is physical.columns[0]
        assert list(partition.compact().rows()) == [(3, 0.3, 30), (1, 0.1, 10), (2, 0.2, 20)]
        assert list(partition.ordered_batch().rows()) == [
            (1, 0.1, 10), (2, 0.2, 20), (3, 0.3, 30)
        ]

    def test_resort_is_stable_over_the_previous_sort_in_either_mode(self):
        """A second sort breaks ties by the first sort's order whether either
        ran in place or through the permutation vector (``perm[order]``)."""
        results = []
        for first in ("sort_inplace", "sort_permutation"):
            for second in ("sort_inplace", "sort_permutation"):
                buffer = TupleBuffer(SCHEMA, 1)
                partition = buffer.partitions[0]
                partition.append(make_batch([1, 1, 2, 2, 1], [0.5, 0.1, 0.4, 0.2, 0.3]))
                getattr(partition, first)(["v"], [True])
                getattr(partition, second)(["k"], [False])
                results.append(list(partition.ordered_batch().rows()))
        assert results[0] == [(1, 0.5), (1, 0.3), (1, 0.1), (2, 0.4), (2, 0.2)]
        assert all(rows == results[0] for rows in results)

    def test_length_mismatch_rejected(self):
        buffer = TupleBuffer(SCHEMA, 1)
        buffer.partitions[0].append(make_batch([1, 2], [0.1, 0.2]))
        with pytest.raises(ExecutionError):
            buffer.partitions[0].append_columns(
                self.EXTENDED, [Column.from_values(DataType.INT64, [1])]
            )

    def test_schema_adopted_only_when_every_partition_has_it(self):
        buffer = TupleBuffer(SCHEMA, 2)
        with pytest.raises(ExecutionError):
            buffer.columns_appended(self.EXTENDED)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=50),
    st.integers(1, 8),
)
def test_partition_scatter_is_lossless(ks, parts):
    """Property: partitioning scatters rows without loss or duplication."""
    vs = [float(i) for i in range(len(ks))]
    buffer = TupleBuffer(SCHEMA, parts, ("k",))
    buffer.append_pieces(buffer.scatter_run([make_batch(ks, vs)]))
    collected = sorted(
        v for p in buffer.partitions for _, v in p.ordered_batch().rows()
    )
    assert collected == vs
