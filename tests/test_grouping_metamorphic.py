"""Metamorphic relations of GROUPING SETS, read from the aggregate registry.

- For every declared primitive, holistic ones included, GROUPING SETS /
  ROLLUP / CUBE equal the UNION ALL of their per-set GROUP BYs (missing keys
  NULL-extended).
- For every primitive with a merge function (Gray et al.'s distributive
  class), the ROLLUP super-aggregate row equals that merge applied over the
  core rows. Holistic primitives declare none: no such relation exists.

The oracle cannot state either relation: both compare an engine with itself.
"""

import datetime

import numpy as np
import pytest

from repro import Database
from repro.aggregates import PRIMITIVES, aggregate_class
from repro.relational import grouped_reduce
from repro.storage import Column
from repro.types import DataType

from tests.helpers import call_sql, normalized_rows

#: Value columns and their types. ``c`` is 7 or NULL: ANY keeps an arbitrary
#: element, so only a column with one value pins its answer.
COLUMNS = {
    "v": DataType.INT64,
    "f": DataType.FLOAT64,
    "b": DataType.BOOL,
    "s": DataType.STRING,
    "d": DataType.DATE,
    "c": DataType.INT64,
}

ENGINES = ["lolepop", "monolithic", "naive"]


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(11)
    rows = 48
    database = Database()
    database.create_table(
        "t", {"k": "int64", "n": "string", **{c: t.value for c, t in COLUMNS.items()}}
    )

    def maybe(values):
        return [None if rng.random() < 0.15 else value for value in values]

    database.insert("t", {
        "k": [int(x) for x in rng.integers(0, 3, rows)],
        "n": maybe([str(x) for x in rng.choice(["a", "b", "c"], rows)]),
        "v": maybe([int(x) for x in rng.integers(-20, 20, rows)]),
        # Quarters sum exactly, in any association order.
        "f": maybe([float(x) / 4 for x in rng.integers(-40, 40, rows)]),
        "b": maybe([bool(x) for x in rng.integers(0, 2, rows)]),
        "s": maybe([str(x) for x in rng.choice(["x", "y", "zz", ""], rows)]),
        "d": maybe([
            datetime.date(2000, 1, 1) + datetime.timedelta(days=int(x))
            for x in rng.integers(0, 9, rows)
        ]),
        "c": maybe([7] * rows),
    })
    return database


def _calls(func, spec):
    """``func`` over every column its domain admits (ANY: over ``c``)."""
    if spec.domain is None:
        columns = [None]
    elif func == "any":
        columns = ["c"]
    else:
        columns = [name for name, dtype in COLUMNS.items() if spec.domain.admits(dtype)]
    return [call_sql(func, spec, column) for column in columns]


CALLS = [call for func, spec in PRIMITIVES.items() for call in _calls(func, spec)]

#: Each grouping form and the key sets it stands for.
FORMS = {
    "GROUPING SETS ((k, n), (k), ())": [("k", "n"), ("k",), ()],
    "ROLLUP (k, n)": [("k", "n"), ("k",), ()],
    "CUBE (k, n)": [("k", "n"), ("k",), ("n",), ()],
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("engine", ENGINES)
def test_grouping_sets_equal_the_union_of_their_group_bys(db, engine, call, form):
    got = db.sql(f"SELECT k, n, {call} FROM t GROUP BY {form}", engine=engine)
    union = []
    for keys in FORMS[form]:
        group = f" GROUP BY {', '.join(keys)}" if keys else ""
        select = ", ".join([*keys, call])
        for row in db.sql(f"SELECT {select} FROM t{group}", engine=engine).rows():
            values = dict(zip(keys, row))
            union.append((values.get("k"), values.get("n"), row[-1]))
    assert normalized_rows(got) == normalized_rows(union)


DISTRIBUTIVE = [
    (func, call)
    for func, spec in PRIMITIVES.items()
    if spec.merge is not None
    for call in _calls(func, spec)
]


@pytest.mark.parametrize("func, call", DISTRIBUTIVE)
@pytest.mark.parametrize("engine", ENGINES)
def test_rollup_super_aggregate_is_the_merge_of_the_core(db, engine, func, call):
    result = db.sql(
        f"SELECT k, {call} AS a, grouping_id FROM t GROUP BY ROLLUP (k)", engine=engine
    )
    core = [a for _, a, gid in result.rows() if gid == 0]
    (total,) = [a for _, a, gid in result.rows() if gid == 1]
    merged = grouped_reduce(
        PRIMITIVES[func].merge,
        Column.from_values(result.batch.schema["a"].dtype, core),
        np.zeros(len(core), dtype=np.int64),
        1,
    )
    assert normalized_rows([(total,)]) == normalized_rows([tuple(merged.to_pylist())])


@pytest.mark.parametrize("name, expected", [
    *((func, "distributive") for func, spec in PRIMITIVES.items() if spec.merge),
    *((func, "holistic") for func, spec in PRIMITIVES.items() if not spec.merge),
    ("avg", "algebraic"),
    ("var_samp", "algebraic"),
    ("stddev_pop", "algebraic"),
    ("median", "holistic"),
    ("mad", "holistic"),
    ("iqr", "holistic"),
    ("mssd", "holistic"),
])
def test_aggregate_class_follows_the_merge_functions(name, expected):
    """A composed aggregate is algebraic exactly when its lowering emits
    only aggregates with a merge function (and no window)."""
    assert aggregate_class(name) == expected
