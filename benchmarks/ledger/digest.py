"""Order-independent digests: of a query result (correctness) and of a
workload's inputs (frozen-input assertion).

The naive row oracle needs minutes at benchmark scale, so a result is
reduced to a small vectorised digest instead and compared with the digest
the independent ``monolithic`` engine produces for the same statement.
Two correct engines may emit rows in another order and sum floats in
another order, so the digest is a multiset summary and floats compare with
a tolerance instead of by rounding (rounding flips at a digit boundary).
"""

from __future__ import annotations

import hashlib
import math
import zlib
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.types import DataType

_MIX = np.uint64(0x9E3779B97F4A7C15)
_NULL_CODE = np.uint64(0x7FFFFFFFFFFFFFFF)
#: Relative to a column's sum of magnitudes; float summation order moves a
#: 300k-row sum by ~1e-13 of that, one wrong row moves it by ~1e-6.
FLOAT_TOLERANCE = 1e-9


def result_digest(batch) -> Tuple:
    """``(rows, exact_hash, ((nulls, sum, abs_sum, keyed_sum), ...))``.

    ``exact_hash`` is a multiset hash over each row's integer, date, bool
    and string values (NULL-aware). Every float column adds its null count,
    its sum, its sum of magnitudes (the tolerance scale) and a sum weighted
    by the row's exact-value hash, which moves when a right value lands on
    a wrong key even though the column's plain sum does not.
    """
    rows = len(batch)
    row_hash = np.zeros(rows, dtype=np.uint64)
    floats = []
    for position, column in enumerate(batch.columns):
        valid = column.valid_mask()
        if column.dtype is DataType.FLOAT64:
            valid = valid & ~np.isnan(column.values)
            floats.append((rows - int(valid.sum()), np.where(valid, column.values, 0.0)))
            continue
        if column.dtype is DataType.STRING:
            uniques, inverse = np.unique(column.values, return_inverse=True)
            codes = np.array(
                [zlib.crc32(str(u).encode("utf-8")) for u in uniques], dtype=np.uint64
            )[inverse]
        else:
            codes = column.values.astype(np.int64).view(np.uint64)
        codes = np.where(valid, codes, _NULL_CODE) + np.uint64(position + 1)
        codes = (codes ^ (codes >> np.uint64(31))) * _MIX
        row_hash = (row_hash ^ codes) * _MIX
    weight = 0.5 + (row_hash >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return (
        rows,
        int(row_hash.sum(dtype=np.uint64)),
        tuple(
            (nulls, float(v.sum()), float(np.abs(v).sum()), float((v * weight).sum()))
            for nulls, v in floats
        ),
    )


def digests_match(a: Tuple, b: Tuple) -> bool:
    if a[0] != b[0] or a[1] != b[1] or len(a[2]) != len(b[2]):
        return False
    for (nulls_a, sum_a, abs_a, keyed_a), (nulls_b, sum_b, abs_b, keyed_b) in zip(a[2], b[2]):
        slack = FLOAT_TOLERANCE * max(abs_a, abs_b) + 1e-12
        if nulls_a != nulls_b or not all(
            math.isclose(x, y, rel_tol=0.0, abs_tol=slack)
            for x, y in ((sum_a, sum_b), (abs_a, abs_b), (keyed_a, keyed_b))
        ):
            return False
    return True


def input_digest(
    tables: Mapping[str, Dict[str, np.ndarray]], statements: Mapping[str, str]
) -> str:
    """blake2b over the generated arrays and the statement texts."""
    h = hashlib.blake2b(digest_size=16)
    for table in sorted(tables):
        for name, array in tables[table].items():
            array = np.asarray(array)
            h.update(f"{table}.{name}:{array.dtype}:{len(array)};".encode())
            if array.dtype == object:
                h.update("\x1f".join(map(str, array)).encode("utf-8"))
            else:
                h.update(np.ascontiguousarray(array).tobytes())
    for name, sql in statements.items():
        h.update(f"{name}={sql};".encode("utf-8"))
    return h.hexdigest()
