"""HASHAGG's run-time merge fan-out: the single merge (partials that fit one
run-time partition, one ``aggregate_batch``) and the partitioned merge
(scatter into hash partitions, one merge per partition) give the same
groups, and so does a lone morsel's grouped partial, which merges nothing
(``none``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import EngineConfig, ExecutionContext
from repro.lolepop.hashagg_op import HashAggTask, two_phase_aggregate
from repro.aggregates import PRIMITIVES
from repro.storage import Batch, Column
from repro.types import DataType, Field, Schema

from tests.helpers import rows_per_partition

SCHEMA = Schema(
    [
        Field("ki", DataType.INT64),
        Field("ks", DataType.STRING),
        Field("kf", DataType.FLOAT64),
        Field("v", DataType.INT64),
        Field("b", DataType.BOOL),
        Field("s", DataType.STRING),
    ]
)

#: Every aggregate with a merge function, over a column it accepts.
TASKS = [
    HashAggTask(f"{func}_{arg or 'star'}", func, arg)
    for func, args in {
        "sum": ["v"],
        "count": ["v", "s"],
        "count_star": [None],
        "min": ["v", "s"],
        "max": ["v", "s"],
        "any": ["v", "s"],
        "bool_and": ["b"],
        "bool_or": ["b"],
    }.items()
    for arg in args
]
assert {task.func for task in TASKS} == {
    name for name, spec in PRIMITIVES.items() if spec.merge is not None
}

KEY_SETS = [["ki"], ["ks"], ["kf"], ["ki", "ks"], ["ks", "kf", "ki"]]

_ROW = st.tuples(
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.none(), st.sampled_from(["", "a", "b", "zz"])),
    st.one_of(
        st.none(),
        st.sampled_from([0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan]),
    ),
    st.one_of(st.none(), st.integers(-1000, 1000)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.sampled_from(["x", "y", "", "long string"])),
)


def _batch(rows):
    """One morsel; its string columns get their own dictionaries."""
    columns = [
        Column.from_values(field.dtype, [row[i] for row in rows])
        for i, field in enumerate(SCHEMA.fields)
    ]
    return Batch(SCHEMA, columns)


def _aggregate(batches, keys, rows):
    """``two_phase_aggregate`` with partitions sized at ``rows`` rows: the
    output rows as a sorted multiset (NaN made comparable) and the merge it
    noted."""
    ctx = ExecutionContext(EngineConfig(num_threads=2))
    noted = {}
    with rows_per_partition(rows):
        out = two_phase_aggregate(
            ctx, batches, keys, TASKS, num_partitions=8, note=noted.update
        )
    rows = [
        tuple("nan" if isinstance(x, float) and math.isnan(x) else x for x in row)
        for row in Batch.concat(out).rows()
    ]
    return sorted(rows, key=repr), noted


def _single_and_partitioned(batches, keys):
    """The single and the partitioned merge of ``batches``, a lone morsel
    split in two so that there are partials to merge. A lone morsel's
    grouped partial is also aggregated as it is: no merge (``none``), and
    the partitioned merge's rows."""
    merged = batches
    if len(batches) == 1:
        half = len(batches[0]) // 2
        merged = [batches[0].slice(0, half), batches[0].slice(half, len(batches[0]))]
    single, single_note = _aggregate(merged, keys, rows=10**9)
    partitioned, partitioned_note = _aggregate(merged, keys, rows=1)
    assert single_note["merge"] == "single"
    assert single_note["merge_partitions"] == 1
    if partitioned_note["partial_rows"] > 1:
        assert partitioned_note["merge"] == "partitioned"
    if len(batches) == 1:
        alone, alone_note = _aggregate(batches, keys, rows=1)
        assert (alone_note["merge"], alone_note["merge_partitions"]) == ("none", 0)
        assert alone_note["preagg_partials"] == 1
        assert alone == partitioned
    return single, partitioned


class TestSingleEqualsPartitioned:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(_ROW, max_size=12), min_size=1, max_size=5),
        st.sampled_from(KEY_SETS),
    )
    def test_random_morsels(self, morsels, keys):
        batches = [_batch(rows) for rows in morsels]
        single, partitioned = _single_and_partitioned(batches, keys)
        assert single == partitioned

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    def test_all_distinct_keys(self, sizes):
        start, batches = 0, []
        for size in sizes:
            batches.append(
                _batch([(start + i, str(start + i), float(i), i, True, "x") for i in range(size)])
            )
            start += size
        single, partitioned = _single_and_partitioned(batches, ["ki", "ks"])
        assert single == partitioned
        assert len(single) == start

    def test_null_keys_form_one_group(self):
        rows = [(None, None, None, 1, True, "x")] * 3 + [(1, "a", 0.0, 2, False, None)]
        batches = [_batch(rows[:2]), _batch(rows[2:])]
        single, partitioned = _single_and_partitioned(batches, ["ki", "ks", "kf"])
        assert single == partitioned
        assert len(single) == 2

    def test_empty_morsels(self):
        rows = [(1, "a", 1.0, 5, True, "x"), (2, "b", 2.0, 6, False, "y")]
        batches = [_batch([]), _batch(rows), _batch([]), _batch(rows)]
        single, partitioned = _single_and_partitioned(batches, ["ks"])
        assert single == partitioned
        assert [row[0] for row in single] == ["a", "b"]

    def test_one_saturated_morsel_still_merges(self):
        # 10 000 distinct keys hit more than 70 % of the 4 096 local slots:
        # the lone partial is a pass-through, one row per input row.
        rows = [(i, str(i % 3), float(i % 5), i % 7, i % 2 == 0, "x") for i in range(10_000)]
        batches = [_batch(rows)]
        for partition_rows, mode in ((10**9, "single"), (4_000, "partitioned")):
            out, noted = _aggregate(batches, ["ki"], partition_rows)
            assert (noted["merge"], noted["partial_rows"]) == (mode, 10_000)
            assert len(out) == 10_000
        assert _aggregate(batches, ["ki"], 10**9)[0] == out

    def test_all_morsels_empty(self):
        single, partitioned = _single_and_partitioned([_batch([]), _batch([])], ["ki"])
        assert single == partitioned == []


class TestBoundary:
    """Σ partial rows = ``ROWS_PER_PARTITION`` merges in one item; one more
    row than ``ROWS_PER_PARTITION`` takes the partitioned merge over two
    buckets."""

    BATCHES = [
        _batch([(i, None, None, i, None, None) for i in range(start, start + 5)])
        for start in (0, 5)
    ]

    def _noted(self, rows):
        return _aggregate(self.BATCHES, ["ki"], rows)[1]

    def test_sum_equal_to_rows_per_partition_is_single(self):
        noted = self._noted(10)
        assert noted["partial_rows"] == 10
        assert (noted["merge"], noted["merge_partitions"]) == ("single", 1)

    def test_one_row_over_rows_per_partition_is_partitioned(self):
        noted = self._noted(9)
        assert noted["partial_rows"] == 10
        assert (noted["merge"], noted["merge_partitions"]) == ("partitioned", 2)

    def test_single_merge_is_one_merge_item(self):
        for rows, items in ((10, 1), (9, 2)):
            ctx = ExecutionContext(EngineConfig(num_threads=2, collect_trace=True))
            with rows_per_partition(rows):
                two_phase_aggregate(
                    ctx, self.BATCHES, ["ki"], TASKS[:1], num_partitions=8
                )
            merges = [r for r in ctx.trace.regions if r.name == "hashagg-merge"]
            assert [r.attrs["items"] for r in merges] == [items]


class TestMergeScatter:
    """The partitioned merge scatters through PARTITION's own
    ``scatter_runs``: one ``hashagg`` scatter item per run of consecutive
    partials holding at least ``ROWS_PER_PARTITION`` rows (the last run may
    hold fewer); the single merge runs no scatter region."""

    # Six morsels of three distinct keys: six three-row partials.
    BATCHES = [
        _batch([(i, None, None, i, None, None) for i in range(start, start + 3)])
        for start in range(0, 18, 3)
    ]

    @pytest.mark.parametrize("rows, scatter_items", [
        (10**9, 0), (5, 3), (6, 3), (7, 2), (3, 6), (1, 6),
    ])
    def test_one_scatter_item_per_run(self, rows, scatter_items):
        ctx = ExecutionContext(EngineConfig(num_threads=2, collect_trace=True))
        with rows_per_partition(rows):
            out = two_phase_aggregate(
                ctx, self.BATCHES, ["ki"], TASKS[:1], num_partitions=8
            )
        items = [r.attrs["items"] for r in ctx.trace.regions if r.name == "hashagg"]
        assert items == [6] + ([scatter_items] if scatter_items else [])
        assert sorted(row[0] for row in Batch.concat(out).rows()) == list(range(18))


class TestSaturationProbe:
    """Phase 1 passes a morsel through unaggregated when its keys would
    saturate the emulated 4 096-slot local table (more than 70 % of the
    slots hit). The probe's slots must look random: at 100 k rows a morsel
    with a few thousand distinct keys, sequential or not, still
    pre-aggregates, and one with well over 4 096 passes through."""

    ROWS = 100_000
    PROBE_SCHEMA = Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)])

    def _partial_rows(self, keys):
        batch = Batch(self.PROBE_SCHEMA, [
            Column(DataType.INT64, keys.astype(np.int64)),
            Column(DataType.INT64, np.ones(len(keys), dtype=np.int64)),
        ])
        noted = {}
        ctx = ExecutionContext(EngineConfig())
        two_phase_aggregate(
            ctx, [batch], ["k"], [HashAggTask("sum_v", "sum", "v")],
            num_partitions=8, note=noted.update,
        )
        return noted["partial_rows"]

    @pytest.mark.parametrize("distinct, preaggregates", [
        (3_000, True), (4_000, True), (6_000, False), (10_000, False),
    ])
    @pytest.mark.parametrize("spread", ["sequential", "random"])
    def test_passes_through_only_past_saturation(self, distinct, preaggregates, spread):
        rng = np.random.default_rng(distinct)
        if spread == "sequential":
            values = np.arange(distinct)
        else:
            values = rng.choice(2**40, size=distinct, replace=False)
        keys = values[rng.permutation(self.ROWS) % distinct]
        expected = distinct if preaggregates else self.ROWS
        assert self._partial_rows(keys) == expected
