"""Run-time partition sizing: PARTITION, the HASHAGG merge and the
monolithic baseline cut their input into one partition per
``ROWS_PER_PARTITION`` rows, with ``num_partitions`` as the upper bound.
The count is a function of the rows alone and never changes an answer."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EngineConfig
from repro.execution import ExecutionContext
from repro.lolepop import PartitionOp, SourceOp
from repro.lolepop.partition_op import ROWS_PER_PARTITION, partition_count
from repro.storage import Batch
from repro.storage.keys import partition_ids
from repro.types import Schema

from tests.helpers import normalized_rows, rows_per_partition

#: Rows per partition in the properties below: small, so a few dozen rows
#: cross several partition boundaries.
R = 7

SCHEMA = Schema.of(("k", "int64"), ("v", "float64"))


@pytest.mark.parametrize(
    "rows, cap, expected",
    [
        (0, 64, 1),
        (1, 64, 1),
        (ROWS_PER_PARTITION, 64, 1),
        (ROWS_PER_PARTITION + 1, 64, 2),
        (3 * ROWS_PER_PARTITION, 64, 3),
        (3 * ROWS_PER_PARTITION + 1, 64, 4),
        (200_000, 64, 13),
        (200_000, 8, 8),
        (10**9, 64, 64),
        (ROWS_PER_PARTITION + 1, 1, 1),
    ],
)
def test_partition_count(rows, cap, expected):
    assert partition_count(rows, cap) == expected


def _partition(rows, keys, cap, **config):
    batch = Batch.from_pydict(
        SCHEMA, {"k": list(range(rows)), "v": [float(i) for i in range(rows)]}
    )
    ctx = ExecutionContext(EngineConfig(num_partitions=cap, **config))
    op = PartitionOp(SourceOp(lambda: [batch]), keys, cap)
    return op.execute(ctx, [[batch]])


class TestPartitionOp:
    @pytest.mark.parametrize("rows, expected", [(2 * R, 2), (2 * R + 1, 3)])
    def test_keyed_count_follows_the_rows(self, rows, expected):
        with rows_per_partition(R):
            buffer = _partition(rows, ("k",), 64)
        assert buffer.num_partitions == expected
        assert buffer.num_rows == rows

    def test_budget_keeps_the_plan_count(self, tmp_path):
        # The partition is the spill unit under a budget, keyed or not.
        for keys in (("k",), ()):
            with rows_per_partition(R):
                buffer = _partition(
                    2 * R, keys, 64,
                    memory_budget_bytes=1 << 30, spill_directory=str(tmp_path),
                )
            assert buffer.num_partitions == 64

    @pytest.mark.parametrize("rows, expected", [(2 * R, 2), (2 * R + 1, 3)])
    def test_round_robin_count_follows_the_rows(self, rows, expected):
        with rows_per_partition(R):
            buffer = _partition(rows, (), 64)
        assert buffer.num_partitions == expected
        assert buffer.num_rows == rows

    @pytest.mark.parametrize("keys", [("k",), ()], ids=["one-partition", "keyless"])
    def test_nothing_to_hash_runs_no_partition_region(self, keys):
        # One keyed partition, or a keyless buffer of several: morsel i is
        # dealt to partition i % n on the submitting thread.
        morsels = [
            Batch.from_pydict(SCHEMA, {"k": [i] * R, "v": [float(i)] * R})
            for i in range(5)
        ]
        ctx = ExecutionContext(EngineConfig(collect_trace=True))
        with rows_per_partition(R if not keys else ROWS_PER_PARTITION):
            op = PartitionOp(SourceOp(lambda: morsels), keys, 64)
            buffer = op.execute(ctx, [morsels])
        assert [p.num_rows for p in buffer.partitions] == ([5 * R] if keys else [R] * 5)
        assert [region.name for region in ctx.trace.regions] == []


def _db(rows, seed):
    rng = random.Random(seed)
    db = Database()
    db.create_table("t", {"i": "int64", "g": "int64", "x": "float64"})
    db.insert(
        "t",
        {
            "i": list(range(rows)),
            "g": [rng.randint(0, 20) for _ in range(rows)],
            "x": [
                round(rng.random() * 100, 3) if rng.random() > 0.1 else None
                for _ in range(rows)
            ],
        },
    )
    return db


#: A window and a sort-based aggregate over a keyed PARTITION, a HASHAGG
#: whose partials are one row per input row, and an ORDER BY that MERGEs.
QUERIES = [
    "SELECT g, i, sum(x) OVER (PARTITION BY g ORDER BY x, i) AS c, "
    "row_number() OVER (PARTITION BY g ORDER BY i) AS rn FROM t",
    "SELECT g, median(x), count(DISTINCT x), sum(x) FROM t GROUP BY g",
    "SELECT i, sum(x), count(*) FROM t GROUP BY i",
    "SELECT g, i, x FROM t ORDER BY x DESC, i LIMIT 9",
]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 10),
    offset=st.sampled_from([-1, 0, 1]),
    cap=st.sampled_from([1, 2, 64]),
    seed=st.integers(0, 2**16),
)
def test_answers_match_the_oracle_around_partition_boundaries(k, offset, cap, seed):
    """At k·R − 1, k·R and k·R + 1 rows and caps 1, 2 and 64, the LOLEPOP
    and monolithic engines agree with the naive oracle, and PARTITION and
    the HASHAGG merge chose ``min(cap, ceil(rows / R))`` partitions. The
    table is scanned as two morsels, so HASHAGG has two partials to merge;
    scanned as one, its one grouped partial is the result (``merge=none``)."""
    rows = k * R + offset
    db = _db(rows, seed)
    expected = min(cap, -(-rows // R))
    config = EngineConfig(num_partitions=cap, morsel_size=-(-rows // 2))
    with rows_per_partition(R):
        for sql in QUERIES:
            reference = normalized_rows(db.sql(sql, engine="naive"))
            for engine in ("lolepop", "monolithic"):
                got = normalized_rows(db.sql(sql, engine=engine, config=config))
                assert got == reference, f"{engine} at {rows} rows, cap {cap}: {sql}"
        window = db.explain_analyze(QUERIES[0], config=config)
        assert re.findall(r"\bpartitions=(\d+)", window) == [str(expected)]
        merge = db.explain_analyze(QUERIES[2], config=config)
        mode = re.search(r"\bmerge=(\w+)", merge).group(1)
        buckets = int(re.search(r"\bmerge_partitions=(\d+)", merge).group(1))
        alone = db.explain_analyze(QUERIES[2], config=EngineConfig(num_partitions=cap))
    assert mode == ("single" if expected == 1 else "partitioned")
    assert 1 <= buckets <= expected
    assert re.search(r"\bmerge=(\w+)", alone).group(1) == "none"
    assert re.search(r"\bmerge_partitions=(\d+)", alone).group(1) == "0"


RUN_SCHEMA = Schema.of(("k", "int64"), ("i", "int64"), ("s", "string"))


def _morsels(seed):
    """30 morsels of 1 to 3 000 rows: a random key, the row's input
    position, and a string column whose dictionary is each morsel's own."""
    rng = np.random.default_rng(seed)
    morsels, start = [], 0
    for size in rng.integers(1, 3_001, 30).tolist():
        keys = rng.integers(0, 1_000, size)
        morsels.append(Batch.from_pydict(RUN_SCHEMA, {
            "k": keys.tolist(),
            "i": list(range(start, start + size)),
            "s": [f"s{k % 7}" for k in keys.tolist()],
        }))
        start += size
    return morsels


class TestRunScatter:
    """A keyed PARTITION scatters runs of consecutive morsels, each run
    concatenated and scattered once: every partition still holds exactly
    the rows :func:`partition_ids` assigns it over the whole input, in
    input order, and there is one ``partition`` work item per run."""

    @pytest.mark.parametrize("mode", ["simulated", "parallel"])
    @pytest.mark.parametrize("budget", [None, 64 * 1024])
    @pytest.mark.parametrize("rows", [R, ROWS_PER_PARTITION])
    def test_runs_scatter_like_one_scatter(self, mode, budget, rows, tmp_path):
        morsels = _morsels(seed=rows + (budget or 0))
        config = EngineConfig(
            num_threads=2, num_partitions=13, execution_mode=mode, collect_trace=True,
            memory_budget_bytes=budget, spill_directory=str(tmp_path),
        )
        ctx = ExecutionContext(config)
        scattered = []
        region = ctx.parallel_for

        def spy(operator, items, fn, *args, **kwargs):
            if operator == "partition":
                scattered.extend(items)
            return region(operator, items, fn, *args, **kwargs)

        ctx.parallel_for = spy
        with rows_per_partition(rows):
            op = PartitionOp(SourceOp(lambda: morsels), ("k",), 13)
            buffer = op.execute(ctx, [morsels])

        # The runs: the morsels in order, each run the shortest prefix of
        # what is left that holds ``rows`` rows (the last may hold fewer).
        assert [id(m) for run in scattered for m in run] == [id(m) for m in morsels]
        sizes = [[len(m) for m in run] for run in scattered]
        assert all(sum(run) >= rows > sum(run[:-1]) for run in sizes[:-1])
        assert sum(sizes[-1][:-1]) < rows
        items = sum(
            len(region.children) for region in ctx.trace.regions if region.name == "partition"
        )
        assert items == len(scattered)

        whole = Batch.concat(morsels)
        ids = partition_ids([whole.column("k")], buffer.num_partitions)
        assert buffer.num_partitions == (13 if budget else min(13, -(-len(whole) // rows)))
        spilled = 0
        for pid, partition in enumerate(buffer.partitions):
            spilled += partition.is_spilled
            # compact() reads a spilled partition's file.
            got = partition.compact()
            expected = np.flatnonzero(ids == pid)
            assert got.column("i").data.tolist() == expected.tolist()
            assert got.column("k").data.tolist() == whole.column("k").data[expected].tolist()
            assert got.column("s").to_pylist() == whole.column("s").take(expected).to_pylist()
        assert (spilled > 0) == (budget is not None)
        ctx.cleanup()
