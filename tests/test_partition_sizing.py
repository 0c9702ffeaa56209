"""Run-time partition sizing: a keyed PARTITION, the HASHAGG merge and the
monolithic baseline cut their input into one partition per
``ROWS_PER_PARTITION`` rows, with ``num_partitions`` as the upper bound.
The count is a function of the rows alone and never changes an answer."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EngineConfig
from repro.execution import ExecutionContext
from repro.lolepop import PartitionOp, SourceOp
from repro.lolepop.partition_op import ROWS_PER_PARTITION, partition_count
from repro.storage import Batch
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
        # The partition is the spill unit under a budget.
        with rows_per_partition(R):
            buffer = _partition(
                2 * R, ("k",), 64,
                memory_budget_bytes=1 << 30, spill_directory=str(tmp_path),
            )
        assert buffer.num_partitions == 64

    def test_round_robin_keeps_the_plan_count(self):
        with rows_per_partition(R):
            buffer = _partition(2 * R, (), 5)
        assert buffer.num_partitions == 5


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
    the HASHAGG merge chose ``min(cap, ceil(rows / R))`` partitions."""
    rows = k * R + offset
    db = _db(rows, seed)
    expected = min(cap, -(-rows // R))
    config = EngineConfig(num_partitions=cap)
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
    assert mode == ("single" if expected == 1 else "partitioned")
    assert 1 <= buckets <= expected
