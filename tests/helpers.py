"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.lolepop import partition_op

ENGINES = ["lolepop", "monolithic", "columnar"]


def normalized_rows(result):
    """Engine-order-independent, float-rounded row list for comparisons."""
    rows = result.rows() if hasattr(result, "rows") else result
    out = []
    for row in rows:
        out.append(
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        )
    return sorted(
        out, key=lambda t: tuple((x is None, str(type(x)), str(x)) for x in t)
    )


def assert_engines_agree(db, sql, engines=None, config=None):
    """All listed engines must reproduce the naive row engine's answer."""
    reference = normalized_rows(db.sql(sql, engine="naive"))
    for engine in engines if engines is not None else ENGINES:
        got = normalized_rows(db.sql(sql, engine=engine, config=config))
        assert got == reference, f"{engine} diverges on: {sql}"
    return reference


def call_sql(func, spec, column=None, fraction="0.5"):
    """SQL for the primitive aggregate ``func`` (its ``AggSpec`` ``spec``)
    over ``column``: ``count(*)`` when it takes no argument, the WITHIN
    GROUP form (at ``fraction``) for an ordered-set aggregate."""
    if spec.domain is None:
        return "count(*)"
    if spec.needs_order:
        fraction = fraction if spec.needs_fraction else ""
        return f"{func}({fraction}) WITHIN GROUP (ORDER BY {column})"
    return f"{func}({column})"


@contextlib.contextmanager
def rows_per_partition(rows):
    """Size run-time partitions (keyed PARTITION, the HASHAGG merge, the
    monolithic baseline) at ``rows`` rows each inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition_op, "ROWS_PER_PARTITION", rows)
        yield
