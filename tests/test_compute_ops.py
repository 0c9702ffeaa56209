"""Direct tests of the compute LOLEPOPs (HASHAGG / ORDAGG / WINDOW)."""

import pytest

from repro.aggregates import FrameBound, FrameSpec, WindowCall
from repro.execution import EngineConfig, ExecutionContext
from repro.expr.nodes import ColumnRef
from repro.lolepop import HashAggOp, OrdAggOp, SourceOp, WindowOp
from repro.lolepop.hashagg_op import HashAggTask
from repro.lolepop.ordagg_op import OrdAggTask
from repro.storage import Batch, TupleBuffer
from repro.types import Schema

SCHEMA = Schema.of(("k", "int64"), ("v", "int64"))


def ctx(**kw):
    return ExecutionContext(EngineConfig(num_threads=2, num_partitions=4, **kw))


def make_batch(ks, vs):
    return Batch.from_pydict(SCHEMA, {"k": ks, "v": vs})


class TestHashAggOp:
    def run_agg(self, batches, keys, tasks, **kw):
        c = ctx(**kw)
        op = HashAggOp(SourceOp(lambda: batches), keys, tasks, num_partitions=4)
        out = op.execute(c, [batches])
        return sorted(Batch.concat(out).rows())

    def test_grouped_sum(self):
        rows = self.run_agg(
            [make_batch([1, 2, 1], [10, 20, 30]), make_batch([2], [5])],
            ["k"],
            [HashAggTask("s", "sum", "v")],
        )
        assert rows == [(1, 40), (2, 25)]

    def test_single_phase_matches_two_phase(self):
        batches = [make_batch([1, 2, 1], [10, 20, 30]), make_batch([2, 3], [5, 7])]
        tasks = [HashAggTask("s", "sum", "v"), HashAggTask("c", "count_star", None)]
        two = self.run_agg(batches, ["k"], tasks)
        one = self.run_agg(batches, ["k"], tasks, two_phase_hashagg=False)
        assert two == one

    def test_global_aggregate_empty_input(self):
        rows = self.run_agg(
            [Batch.empty(SCHEMA)], [],
            [HashAggTask("c", "count_star", None), HashAggTask("s", "sum", "v")],
        )
        assert rows == [(0, None)]

    def test_keys_only_distinct(self):
        rows = self.run_agg(
            [make_batch([1, 1, 2], [7, 7, 8])], ["k", "v"], []
        )
        assert rows == [(1, 7), (2, 8)]

    def test_merge_func_mapping(self):
        assert HashAggTask("x", "count", "v").merge_func == "sum"
        assert HashAggTask("x", "min", "v").merge_func == "min"


class TestOrdAggOp:
    def sorted_buffer(self, ks, vs, keys=("k", "v")):
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch(ks, vs)]))
        for partition in buffer.partitions:
            partition.sort_inplace(list(keys), [False] * len(keys))
        buffer.set_ordering(tuple((k, False) for k in keys))
        return buffer

    def run_agg(self, buffer, keys, tasks):
        c = ctx()
        op = OrdAggOp(SourceOp(lambda: []), list(keys), tasks)
        out = op.execute(c, [buffer])
        return sorted(Batch.concat(out).rows())

    def test_associative_on_ranges(self):
        buffer = self.sorted_buffer([1, 1, 2, 2, 2], [5, 3, 2, 8, 4])
        rows = self.run_agg(
            buffer, ["k"],
            [OrdAggTask("s", "sum", "v"), OrdAggTask("c", "count", "v")],
        )
        assert rows == [(1, 8, 2), (2, 14, 3)]

    def test_percentile_disc_positions(self):
        buffer = self.sorted_buffer([1, 1, 1, 1], [10, 20, 30, 40])
        rows = self.run_agg(
            buffer, ["k"],
            [OrdAggTask("p", "percentile_disc", "v", 0.5)],
        )
        assert rows == [(1, 20)]

    def test_percentile_cont_interpolation(self):
        buffer = self.sorted_buffer([1, 1], [10, 20])
        rows = self.run_agg(
            buffer, ["k"], [OrdAggTask("p", "percentile_cont", "v", 0.5)]
        )
        assert rows == [(1, 15.0)]

    def test_distinct_dedup_on_sorted_range(self):
        buffer = self.sorted_buffer([1, 1, 1, 2], [7, 7, 9, 7])
        rows = self.run_agg(
            buffer, ["k"],
            [
                OrdAggTask("sd", "sum", "v", distinct=True),
                OrdAggTask("cd", "count", "v", distinct=True),
            ],
        )
        assert rows == [(1, 16, 2), (2, 7, 1)]

    def test_empty_buffer(self):
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        rows = self.run_agg(buffer, ["k"], [OrdAggTask("s", "sum", "v")])
        assert rows == []


class TestWindowOp:
    def sorted_buffer(self, ks, vs):
        buffer = TupleBuffer(SCHEMA, 2, ("k",))
        buffer.append_pieces(buffer.scatter_run([make_batch(ks, vs)]))
        for partition in buffer.partitions:
            partition.sort_inplace(["k", "v"], [False, False])
        buffer.set_ordering((("k", False), ("v", False)))
        return buffer

    def run_window(self, buffer, calls, post_items=None):
        c = ctx()
        op = WindowOp(SourceOp(lambda: []), calls, post_items)
        return op.execute(c, [buffer])

    def call(self, func, **kw):
        defaults = dict(
            name="w",
            func=func,
            args=[ColumnRef("v")] if func not in ("row_number",) else [],
            partition_by=[ColumnRef("k")],
            order_by=[(ColumnRef("v"), False)],
        )
        defaults.update(kw)
        return WindowCall(**defaults)

    def rows_by_key(self, buffer):
        out = {}
        for batch in [p.ordered_batch() for p in buffer.partitions]:
            for row in batch.rows():
                out.setdefault(row[0], []).append(row)
        return out

    def test_row_number(self):
        buffer = self.sorted_buffer([1, 1, 2], [5, 3, 9])
        out = self.run_window(buffer, [self.call("row_number")])
        by_key = self.rows_by_key(out)
        assert [r[2] for r in by_key[1]] == [1, 2]
        assert [r[2] for r in by_key[2]] == [1]

    def test_running_sum(self):
        buffer = self.sorted_buffer([1, 1, 1], [1, 2, 3])
        out = self.run_window(
            buffer, [self.call("sum", frame=FrameSpec.running())]
        )
        assert [r[2] for r in self.rows_by_key(out)[1]] == [1, 3, 6]

    def test_bounded_rows_frame(self):
        buffer = self.sorted_buffer([1] * 5, [1, 2, 3, 4, 5])
        frame = FrameSpec(FrameBound.PRECEDING, 1, FrameBound.FOLLOWING, 1)
        out = self.run_window(buffer, [self.call("sum", frame=frame)])
        assert [r[2] for r in self.rows_by_key(out)[1]] == [3, 6, 9, 12, 9]

    def test_lag_lead_defaults(self):
        buffer = self.sorted_buffer([1, 1, 1], [1, 2, 3])
        out = self.run_window(buffer, [self.call("lead", offset=1)])
        assert [r[2] for r in self.rows_by_key(out)[1]] == [2, 3, None]

    def test_whole_partition_percentile_broadcast(self):
        buffer = self.sorted_buffer([1, 1, 1, 1], [10, 20, 30, 40])
        out = self.run_window(
            buffer,
            [self.call("percentile_disc", fraction=0.5,
                       frame=FrameSpec.whole_partition(), order_by=[])],
        )
        assert [r[2] for r in self.rows_by_key(out)[1]] == [20, 20, 20, 20]

    def test_post_items_materialized_into_buffer(self):
        buffer = self.sorted_buffer([1, 1], [3, 5])
        out = self.run_window(
            buffer,
            [self.call("sum", frame=FrameSpec.whole_partition())],
            post_items=[("delta", ColumnRef("v") - ColumnRef("w"))],
        )
        assert "delta" in out.schema.names()
        assert [r[3] for r in self.rows_by_key(out)[1]] == [-5, -3]

    def test_mixed_orderings_rejected(self):
        with pytest.raises(Exception):
            WindowOp(
                SourceOp(lambda: []),
                [
                    self.call("sum"),
                    self.call("sum", order_by=[(ColumnRef("k"), False)]),
                ],
            )
