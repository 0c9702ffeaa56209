"""Differential tests: every vectorized engine must reproduce the naive row
engine's answer on a battery of fixed queries plus randomized data."""

import datetime
import math
import warnings

import numpy as np
import pytest

from repro import Database, EngineConfig
from repro.aggregates import PRIMITIVES
from repro.types import DataType

from tests.helpers import ENGINES, assert_engines_agree, call_sql, normalized_rows

# Partitions sized for a handful of rows, so these small tables are still
# hash-scattered into many partitions and merged over many runs.
pytestmark = pytest.mark.usefixtures("tiny_partitions")

FIXED_QUERIES = [
    # associative flavors
    "SELECT k, sum(q), count(*), count(e), min(e), max(e) FROM r GROUP BY k",
    "SELECT k, min(s), max(s), any(s) IS NOT NULL AS has FROM r GROUP BY k",
    "SELECT sum(q), count(*) FROM r",
    "SELECT count(*) FROM r",  # regression: zero-column pre-projection
    "SELECT k, bool_and(b), bool_or(b) FROM r GROUP BY k",
    # distinct
    "SELECT k, count(DISTINCT n), sum(DISTINCT n) FROM r GROUP BY k",
    "SELECT count(DISTINCT s) FROM r",
    "SELECT k, avg(DISTINCT n) FROM r GROUP BY k",
    # ordered-set
    "SELECT k, percentile_disc(0.5) WITHIN GROUP (ORDER BY q) FROM r GROUP BY k",
    "SELECT k, percentile_disc(0.25) WITHIN GROUP (ORDER BY q DESC) FROM r GROUP BY k",
    "SELECT k, percentile_cont(0.9) WITHIN GROUP (ORDER BY e) FROM r GROUP BY k",
    "SELECT k, median(q), median(e) FROM r GROUP BY k",
    "SELECT percentile_disc(0.5) WITHIN GROUP (ORDER BY q) FROM r",
    # mixed: ordered-set + associative + distinct (Figure 3 plan 2 shape)
    (
        "SELECT k, sum(q), sum(DISTINCT n), "
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY q), "
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY e) FROM r GROUP BY k"
    ),
    # composed
    "SELECT k, avg(e), var_pop(e), var_samp(e), stddev_pop(e), stddev_samp(e) FROM r GROUP BY k",
    # grouping sets / rollup / cube
    "SELECT k, n, sum(q) FROM r GROUP BY GROUPING SETS ((k, n), (k), (n))",
    "SELECT k, n, sum(q), grouping_id FROM r GROUP BY GROUPING SETS ((k, n), (k))",
    "SELECT k, n, count(*) FROM r GROUP BY ROLLUP (k, n)",
    "SELECT k, n, sum(q) FROM r GROUP BY CUBE (k, n)",
    "SELECT k, n, percentile_disc(0.5) WITHIN GROUP (ORDER BY q) FROM r "
    "GROUP BY GROUPING SETS ((k, n), (k))",
    # expressions in keys and args
    "SELECT n + 1 AS n1, sum(q * 2) FROM r GROUP BY n + 1",
    "SELECT k, sum(CASE WHEN q > 0.5 THEN 1 ELSE 0 END) FROM r GROUP BY k",
    # HAVING / ORDER BY / LIMIT
    "SELECT k, sum(q) AS s FROM r GROUP BY k HAVING count(*) > 50 ORDER BY s DESC",
    "SELECT k, count(*) AS c FROM r GROUP BY k ORDER BY c DESC, k LIMIT 3",
    "SELECT s, e FROM r WHERE e IS NOT NULL ORDER BY e LIMIT 10 OFFSET 5",
    # windows (deterministic orderings)
    "SELECT k, q, row_number() OVER (PARTITION BY k ORDER BY q, e, d) AS rn FROM r",
    "SELECT k, q, rank() OVER (PARTITION BY k ORDER BY n) AS rk, "
    "dense_rank() OVER (PARTITION BY k ORDER BY n) AS dr FROM r",
    "SELECT k, lag(q) OVER (PARTITION BY k ORDER BY q, e, d) AS lg, "
    "lead(q, 2) OVER (PARTITION BY k ORDER BY q, e, d) AS ld FROM r",
    "SELECT k, sum(q) OVER (PARTITION BY k ORDER BY q, e, d) AS cs FROM r",
    "SELECT k, min(q) OVER (PARTITION BY k ORDER BY q, e, d "
    "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS mw FROM r",
    "SELECT k, first_value(q) OVER (PARTITION BY k ORDER BY q, e, d) AS fv, "
    "last_value(q) OVER (PARTITION BY k ORDER BY q, e, d) AS lv FROM r",
    "SELECT k, ntile(4) OVER (PARTITION BY k ORDER BY q, e, d) AS nt FROM r",
    "SELECT k, cume_dist() OVER (PARTITION BY k ORDER BY n) AS cd FROM r",
    "SELECT s, sum(q) OVER (PARTITION BY s) AS total FROM r",
    # nested aggregates
    "SELECT k, mad(q) FROM r GROUP BY k",
    "SELECT k, median(q - median(q)) FROM r GROUP BY k",
    "SELECT k, mssd(q) WITHIN GROUP (ORDER BY d) FROM r GROUP BY k",
    "SELECT k, sum(pow(lead(q) OVER (PARTITION BY k ORDER BY d, q, e) - q, 2)) "
    "/ nullif(count(*) - 1, 0) AS m FROM r GROUP BY k",
    # nested aggregation regions
    "SELECT percentile_disc(0.5) WITHIN GROUP (ORDER BY t) FROM "
    "(SELECT sum(q) AS t FROM r GROUP BY k) AS sub",
    "SELECT n2, count(*) FROM (SELECT k, count(*) AS n2 FROM r GROUP BY k) AS c "
    "GROUP BY n2",
    # CTE + window + aggregate (the paper's introductory query)
    (
        "WITH diffs AS (SELECT k, n, q - lag(q) OVER (ORDER BY d, q, e) AS delta FROM r) "
        "SELECT k, avg(delta), median(delta), count(DISTINCT delta) "
        "FROM diffs GROUP BY k"
    ),
    # set operations
    "SELECT k, sum(q) FROM r GROUP BY k UNION ALL SELECT n, sum(e) FROM r GROUP BY n",
    "SELECT DISTINCT k, n FROM r",
    # strings
    "SELECT s, count(*) FROM r WHERE s LIKE '%e%' GROUP BY s",
    "SELECT upper(s) AS u, count(*) FROM r GROUP BY upper(s)",
    # DISTINCT folded into the ORDAGG that sorts on its argument
    "SELECT k, bool_or(DISTINCT b), bool_and(DISTINCT b), "
    "percentile_disc(0.5) WITHIN GROUP (ORDER BY b) FROM r GROUP BY k",
]


@pytest.mark.parametrize("sql", FIXED_QUERIES, ids=range(len(FIXED_QUERIES)))
def test_engines_agree_on_fixed_query(db, sql):
    assert_engines_agree(db, sql)


@pytest.mark.parametrize("direction", ["", " DESC"])
@pytest.mark.parametrize("call", [
    "percentile_disc(0.25) WITHIN GROUP (ORDER BY q{})",
    "percentile_cont(0.25) WITHIN GROUP (ORDER BY q{})",
    "mode() WITHIN GROUP (ORDER BY n{})",
])
def test_within_group_direction_under_over(db, call, direction):
    """An ordered-set window broadcasts its partition's GROUP BY answer, in
    the WITHIN GROUP direction, on every engine and the oracle alike."""
    call = call.format(direction)
    rows = assert_engines_agree(db, f"SELECT k, {call} OVER (PARTITION BY k) AS w FROM r")
    grouped = db.sql(f"SELECT k, {call} FROM r GROUP BY k", engine="naive")
    assert normalized_rows(list(set(rows))) == normalized_rows(grouped)


@pytest.mark.parametrize("engine", ENGINES + ["naive"])
@pytest.mark.parametrize("subquery", [
    "SELECT n FROM r WHERE k < 3 AND q > 0.9",
    "SELECT n FROM r WHERE k < 3 AND q > 0.9 AND n IS NOT NULL",
    "1, 2, 3",
])
def test_not_in_keeps_no_row_of_r(db, engine, subquery):
    """``n`` is 1, 2, 3 or NULL: a NULL in the subquery keeps no row, and
    neither does a NULL ``n`` (the oracle computed a plain anti join too)."""
    sql = f"SELECT count(*) FROM r WHERE n NOT IN ({subquery})"
    assert db.sql(sql, engine=engine).rows() == [(0,)]


@pytest.mark.parametrize("source", ["r WHERE q > 2", "empty_r"])
@pytest.mark.parametrize("call", [
    "median(q)",
    "percentile_cont(0.25) WITHIN GROUP (ORDER BY q)",
    "percentile_disc(0.25) WITHIN GROUP (ORDER BY n)",
    "mode() WITHIN GROUP (ORDER BY n)",
])
def test_keyless_ordered_aggregate_over_no_rows(db, call, source):
    """A keyless ORDAGG over no rows still has its one group: one NULL row,
    on every engine alike, whether the table is empty or a WHERE keeps
    nothing of it."""
    db.create_table("empty_r", {"q": "float64", "n": "int64"})
    for engine in ENGINES + ["naive"]:
        assert db.sql(f"SELECT {call} FROM {source}", engine=engine).rows() == [(None,)]
    assert_engines_agree(db, f"SELECT {call}, count(*) FROM {source}")


#: Every call's IEEE answer: a zero or negative operand gives inf or NaN,
#: never a Python error and never a numpy warning.
IEEE_EDGE_CALLS = {
    "power(0.0, -1)": math.inf,
    "power(-0.0, -1)": -math.inf,
    "pow(-3.0, 0.5)": math.nan,
    "power(10.0, 400)": math.inf,
    "ln(0.0)": -math.inf,
    "ln(-1.0)": math.nan,
}


@pytest.mark.parametrize("engine", ENGINES + ["naive"])
@pytest.mark.parametrize("call", list(IEEE_EDGE_CALLS))
def test_power_and_ln_answer_ieee_without_a_warning(db, engine, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((value,),) = db.sql(f"SELECT {call} FROM r WHERE k = 0 LIMIT 1", engine=engine).rows()
    expected = IEEE_EDGE_CALLS[call]
    if math.isnan(expected):
        assert math.isnan(value)
    else:
        assert value == expected and math.copysign(1, value) == math.copysign(1, expected)


@pytest.mark.parametrize("threads", [1, 4])
def test_thread_count_does_not_change_results(db, threads):
    sql = (
        "SELECT k, sum(q), count(DISTINCT n), "
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY q) FROM r GROUP BY k"
    )
    config = EngineConfig(num_threads=threads, num_partitions=16)
    assert_engines_agree(db, sql, config=config)


@pytest.mark.parametrize("partitions", [1, 3, 64])
def test_partition_count_does_not_change_results(db, partitions):
    sql = "SELECT k, median(q), sum(DISTINCT n) FROM r GROUP BY k"
    config = EngineConfig(num_partitions=partitions)
    assert_engines_agree(db, sql, config=config)


@pytest.mark.parametrize("morsel", [7, 100, 10_000])
def test_morsel_size_does_not_change_results(db, morsel):
    sql = "SELECT k, n, sum(q) FROM r GROUP BY GROUPING SETS ((k, n), (n))"
    config = EngineConfig(morsel_size=morsel)
    assert_engines_agree(db, sql, engines=["lolepop", "monolithic"], config=config)


ABLATION_FLAGS = [
    {"reuse_buffers": False},
    {"elide_sorts": False},
    {"remove_redundant_combines": False},
    {"reaggregate_grouping_sets": False},
    {"two_phase_hashagg": False},
    {"permutation_vectors": False},
]


@pytest.mark.parametrize("flags", ABLATION_FLAGS, ids=lambda f: next(iter(f)))
def test_ablation_flags_preserve_results(db, flags):
    """Every optimizer ablation changes the plan, never the answer."""
    queries = [
        "SELECT k, sum(q), sum(DISTINCT n), "
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY q) FROM r GROUP BY k",
        "SELECT k, n, sum(q) FROM r GROUP BY GROUPING SETS ((k, n), (k), (n))",
        "SELECT k, mad(q) FROM r GROUP BY k",
    ]
    config = EngineConfig(num_threads=2, **flags)
    for sql in queries:
        assert_engines_agree(db, sql, engines=["lolepop"], config=config)


def test_randomized_differential():
    """Randomized data + a grammar of query shapes, all engines."""
    rng = np.random.default_rng(123)
    for round_number in range(3):
        database = Database(num_threads=2)
        database.create_table("t", {"g": "int64", "h": "int64", "x": "float64"})
        size = int(rng.integers(30, 300))
        database.insert(
            "t",
            {
                "g": [int(v) for v in rng.integers(0, 5, size)],
                "h": [
                    int(v) if v < 3 else None for v in rng.integers(0, 4, size)
                ],
                "x": [
                    round(float(v), 3) if v > 0.05 else None
                    for v in rng.random(size)
                ],
            },
        )
        queries = [
            "SELECT g, sum(x), count(x), count(*) FROM t GROUP BY g",
            "SELECT g, h, sum(x) FROM t GROUP BY GROUPING SETS ((g, h), (g))",
            "SELECT g, median(x), count(DISTINCT h) FROM t GROUP BY g",
            "SELECT g, x, sum(x) OVER (PARTITION BY g ORDER BY x, h) AS c FROM t "
            "WHERE x IS NOT NULL",
            "SELECT g, mad(x) FROM t GROUP BY g",
        ]
        for sql in queries:
            assert_engines_agree(database, sql)


# ----------------------------------------------------------------------
# Layer toggles on string keys: serial / parallel / spill / reuse
# ----------------------------------------------------------------------
def _string_db(reuse=None) -> Database:
    """Two tables whose string columns have different dictionaries (other
    entries, another order), NULLs and an empty string."""
    database = Database(reuse=reuse)
    database.create_table("people", {"name": "string", "city": "string", "x": "int64"})
    database.create_table("cities", {"city": "string", "region": "string"})
    rng = np.random.default_rng(15)
    towns = ["Ulm", "aachen", "Zürich", "", "Bonn", "Örebro", None]
    database.insert(
        "people",
        {
            "name": [f"p{(i * 37) % 400:03d}" for i in range(400)],
            "city": [towns[v] for v in rng.integers(0, len(towns), 400)],
            "x": [int(v) for v in rng.integers(0, 100, 400)],
        },
    )
    database.insert(
        "cities",
        {
            "city": ["Zürich", "Bonn", "Kiel", "", "Ulm", None],
            "region": ["south", "west", "north", "nowhere", "south", "void"],
        },
    )
    return database


STRING_QUERIES = [
    # string join key across two tables
    "SELECT p.name, p.city, c.region FROM people p JOIN cities c ON p.city = c.city",
    "SELECT c.region, count(*), sum(p.x) FROM people p JOIN cities c ON p.city = c.city "
    "GROUP BY c.region",
    # CASE-produced strings grouped together with table strings
    "SELECT label, count(*), min(x) FROM (SELECT CASE WHEN x > 80 THEN 'big' "
    "WHEN x < 5 THEN 'Ulm' ELSE city END AS label, x FROM people) AS t GROUP BY label",
    "SELECT city, upper(city) AS u, count(*) FROM people WHERE city >= 'Bonn' "
    "GROUP BY city, upper(city)",
    "SELECT city, min(name), max(name), count(DISTINCT name) FROM people GROUP BY city",
    "SELECT city, name, row_number() OVER (PARTITION BY city ORDER BY name DESC) AS rn "
    "FROM people",
    "SELECT city, count(*) FROM (SELECT city FROM people UNION ALL SELECT city FROM cities) "
    "AS u GROUP BY city",
    # an untyped NULL literal meeting string columns (it has no dictionary)
    "SELECT name, CASE WHEN x > 50 THEN 'hi' ELSE NULL END AS c FROM people",
    "SELECT CASE WHEN x > 50 THEN city ELSE NULL END AS c, count(*) FROM people "
    "GROUP BY CASE WHEN x > 50 THEN city ELSE NULL END",
    "SELECT name, coalesce(city, NULL) AS c, nullif(city, NULL) AS d FROM people",
    "SELECT name FROM people WHERE city IN ('Ulm', NULL, '')",
    "SELECT name FROM people WHERE city NOT IN ('Ulm', NULL)",
    "SELECT name, lag(city, 1, NULL) OVER (ORDER BY name) AS prev FROM people",
    "SELECT p.name, n.k FROM people p LEFT JOIN (SELECT NULL AS k, city AS c FROM cities) "
    "AS n ON p.city = n.k",
]

#: Total orders: the row *sequence* must match, not just the multiset.
STRING_ORDER_QUERIES = [
    "SELECT city, name FROM people ORDER BY city DESC NULLS LAST, name",
    "SELECT name, city FROM people ORDER BY name",  # MERGE on one string key
    "SELECT name FROM people ORDER BY name DESC LIMIT 17",
]


def _string_layers(tmp_path):
    plain, reusing = _string_db(), _string_db(reuse=True)
    return {
        "serial": (plain, EngineConfig(num_partitions=4, morsel_size=64)),
        "parallel4": (
            plain,
            EngineConfig(
                num_threads=4, num_partitions=4, morsel_size=64, execution_mode="parallel"
            ),
        ),
        "spill": (
            plain,
            EngineConfig(
                num_partitions=4, morsel_size=64, memory_budget_bytes=1024,
                spill_directory=str(tmp_path),
            ),
        ),
        "reuse": (reusing, EngineConfig(num_partitions=4, morsel_size=64)),
        "reuse-warm": (reusing, EngineConfig(num_partitions=4, morsel_size=64)),
    }


@pytest.mark.parametrize("sql", STRING_QUERIES + STRING_ORDER_QUERIES)
def test_string_keys_are_invisible_to_every_layer(sql, tmp_path):
    ordered = sql in STRING_ORDER_QUERIES
    shape = list if ordered else normalized_rows
    layers = _string_layers(tmp_path)
    reference = shape(layers["serial"][0].sql(sql, engine="naive").rows())
    assert reference
    for layer, (database, config) in layers.items():
        result = database.sql(sql, config=config)
        assert shape(result.rows()) == reference, f"{layer} diverges on: {sql}"
        if layer == "spill" and (ordered or "OVER" in sql):
            # Buffered plans really went through the string spill format.
            assert result.spill["events"] > 0
    monolithic = shape(layers["serial"][0].sql(sql, engine="monolithic").rows())
    assert monolithic == reference


# ----------------------------------------------------------------------
# Column pruning is result-invisible: bind() against the binder's own
# unpruned plan, and the buffer layers over the pruned corpus
# ----------------------------------------------------------------------
#: Shapes where pruning has to get a name or a position right. ``u`` shares
#: the column names k, q and s with ``r``, so joins rename on collision.
PRUNING_QUERIES = [
    # window over a join with colliding names on both sides
    "SELECT a.k, b.q, a.s, b.s, row_number() OVER (PARTITION BY a.k, b.s ORDER BY "
    "b.q, a.q, a.e, a.d) AS rn FROM r a JOIN u b ON a.k = b.k",
    "SELECT b.q + a.q AS t, sum(b.z) OVER (PARTITION BY b.s ORDER BY a.q, a.e, a.d) AS c "
    "FROM r a JOIN u b ON a.k = b.k WHERE b.q > 1",
    # SELECT * above a window / above a renaming join
    "SELECT * FROM (SELECT k, q, e, d, row_number() OVER (PARTITION BY k ORDER BY q, e, d) "
    "AS rn FROM r) AS t",
    "SELECT * FROM (SELECT a.q, b.q, b.z, a.s FROM r a JOIN u b ON a.k = b.k) AS t",
    # window, then re-aggregate (the sensor corpus's se10 shape)
    "SELECT k, max(run) AS longest FROM (SELECT k, cumsum(CASE WHEN q > 0.5 THEN 1.0 ELSE "
    "0.0 END) OVER (PARTITION BY k ORDER BY q, e, d) AS run FROM r) AS t GROUP BY k ORDER BY k",
    # ORDER BY an expression that is not in the select list
    "SELECT k, q FROM r ORDER BY q * 2 - k DESC, 1, 2",
    "SELECT k, count(*) AS c FROM r GROUP BY k ORDER BY c * -1, k LIMIT 4",
    # count(*) reads no column: one must survive, wherever it sits
    "SELECT count(*) FROM r a JOIN u b ON a.k = b.k",
    "SELECT count(*) FROM (SELECT k, q FROM r) AS t",
    "SELECT count(*) FROM (SELECT k FROM r UNION ALL SELECT k FROM u) AS x",
    "SELECT count(*) FROM (SELECT row_number() OVER (PARTITION BY k ORDER BY q, e, d) AS rn "
    "FROM r) AS t",
    # EXISTS / SEMI / ANTI: the right side keeps only its keys
    "SELECT k, q FROM r WHERE EXISTS (SELECT z FROM u WHERE u.k = r.k AND u.z > 1)",
    "SELECT s, count(*) FROM r WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = r.n) GROUP BY s",
    "SELECT a.q, a.s FROM r a SEMI JOIN u b ON a.k = b.k AND a.s = b.s",
    "SELECT a.q FROM r a ANTI JOIN u b ON a.n = b.k",
    # LEFT JOIN padding
    "SELECT a.n, a.q, b.z, b.s FROM r a LEFT JOIN u b ON a.n = b.k",
    "SELECT b.s, count(*), count(b.z) FROM r a LEFT JOIN u b ON a.n = b.k GROUP BY b.s",
    # UNION ALL: branches line up by position, also when one cannot narrow
    "SELECT k FROM (SELECT k, q FROM r WHERE q > 0.5 UNION ALL SELECT k, q FROM u WHERE z > 1) "
    "AS x",
    "SELECT n FROM (SELECT DISTINCT k, n FROM r UNION ALL SELECT k, z FROM u) AS x",
    "SELECT q, sum(k) FROM (SELECT k, q, s FROM u UNION ALL SELECT n, e, s FROM r) AS x "
    "GROUP BY q",
    # a CTE referenced twice with different column needs
    "WITH c AS (SELECT k, n, q, e, s FROM r) SELECT k, sum(q) FROM c GROUP BY k UNION ALL "
    "SELECT n, max(e) FROM c GROUP BY n",
    "WITH c AS (SELECT k, n, q, e FROM r WHERE b) SELECT x.q, y.e FROM c x JOIN "
    "(SELECT n, max(e) AS e FROM c GROUP BY n) AS y ON x.k = y.n",
    # GROUPING SETS over a join
    "SELECT a.s, b.s, sum(a.q), grouping_id FROM r a JOIN u b ON a.k = b.k GROUP BY "
    "GROUPING SETS ((a.s, b.s), (b.s), ())",
    # int64 = float64 join keys, either side building (u.q holds 1.0 and 4.0)
    "SELECT a.k, b.q, b.z FROM r a JOIN u b ON a.k = b.q",
    "SELECT b.q, b.z, a.s FROM u b JOIN r a ON b.q = a.k",
    "SELECT a.n, b.q, b.s FROM r a LEFT JOIN u b ON a.n = b.q",
    "SELECT b.q, a.k FROM u b LEFT JOIN r a ON b.q = a.k",
    "SELECT a.s, count(*) FROM r a SEMI JOIN u b ON a.k = b.q GROUP BY a.s",
    "SELECT b.q, b.z FROM u b ANTI JOIN r a ON b.q = a.n",
]


@pytest.fixture
def joined_db(db):
    db.create_table("u", {"k": "int64", "q": "float64", "s": "string", "z": "int64"})
    db.insert(
        "u",
        {
            "k": [0, 1, 2, 3, 3, None, 9],
            "q": [1.5, 2.5, None, 0.25, 4.0, 1.0, 7.0],
            "s": ["red", "mauve", "blue", "red", None, "cyan", "blue"],
            "z": [1, 2, 3, None, 5, 6, 7],
        },
    )
    return db


@pytest.mark.parametrize("sql", FIXED_QUERIES + PRUNING_QUERIES)
def test_pruning_is_result_invisible(joined_db, sql):
    from repro.baseline import MonolithicEngine, NaiveRowEngine as NaiveEngine
    from repro.lolepop import LolepopEngine
    from repro.sql import bind, parse_sql
    from repro.sql.binder import _Binder

    catalog = joined_db.catalog
    pruned = bind(parse_sql(sql), catalog)
    unpruned = _Binder(catalog).bind_statement(parse_sql(sql))
    assert pruned.schema == unpruned.schema
    assert not unpruned.rewrites
    # Every statement here leaves some column of r unread.
    assert any(event.pass_name == "prune-columns" for event in pruned.rewrites)
    reference = normalized_rows(NaiveEngine(catalog).run(unpruned))
    for engine in (NaiveEngine, MonolithicEngine, LolepopEngine):
        got = normalized_rows(engine(catalog).run(pruned))
        assert got == reference, f"{engine.name} diverges under pruning on: {sql}"
    assert normalized_rows(LolepopEngine(catalog).run(unpruned)) == reference


def test_pruning_narrows_what_flows_below_windows_and_joins(joined_db):
    from repro.logical import Join, Scan, Window
    from repro.sql import bind, parse_sql

    def widths(sql, kind):
        found, stack = [], [bind(parse_sql(sql), joined_db.catalog)]
        while stack:
            node = stack.pop()
            if isinstance(node, kind):
                found.append(node.schema.names())
            stack.extend(node.children)
        return found

    sql = "SELECT row_number() OVER (PARTITION BY k ORDER BY q, e, d) AS rn FROM r"
    assert widths(sql, Scan) == [["k", "q", "e", "d"]]
    assert widths(sql, Window) == [["k", "q", "e", "d", "_win0"]]
    # The join keeps the unpruned output names: b.q is q_1 with or without
    # a.q next to it.
    sql = "SELECT b.q, a.e FROM r a JOIN u b ON a.k = b.k"
    assert widths(sql, Join) == [["k", "e", "k_1", "q_1"]]
    assert sorted(widths(sql, Scan)) == [["k", "e"], ["k", "q"]]


LAYERS = {
    "serial": {},
    "parallel4": {"num_threads": 4, "execution_mode": "parallel"},
    "budget": {"memory_budget_bytes": 1024},
    "budget+parallel4": {
        "memory_budget_bytes": 1024, "num_threads": 4, "execution_mode": "parallel",
    },
}


@pytest.mark.parametrize("sql", FIXED_QUERIES + PRUNING_QUERIES)
def test_budget_and_threads_are_invisible_on_the_corpus(joined_db, sql, tmp_path):
    """Serial / 4 threads / 1 KiB budget / both: identical answers."""
    reference = normalized_rows(joined_db.sql(sql, engine="naive"))
    for layer, knobs in LAYERS.items():
        config = EngineConfig(
            num_partitions=4, morsel_size=64, spill_directory=str(tmp_path), **knobs
        )
        got = normalized_rows(joined_db.sql(sql, config=config))
        assert got == reference, f"{layer} diverges on: {sql}"


MIXED_KEY_JOINS = {
    "SELECT k, w FROM a JOIN b ON k = f": [(1, 10), (2, 20)],
    "SELECT f, w, k FROM b JOIN a ON f = k": [(1.0, 10, 1), (2.0, 20, 2)],
    "SELECT k, w FROM a LEFT JOIN b ON k = f": [(1, 10), (2, 20), (3, None), (None, None)],
    "SELECT w, k FROM b LEFT JOIN a ON f = k": [(10, 1), (20, 2), (30, None), (40, None)],
    "SELECT k FROM a SEMI JOIN b ON k = f": [(1,), (2,)],
    "SELECT w FROM b SEMI JOIN a ON f = k": [(10,), (20,)],
    "SELECT k FROM a ANTI JOIN b ON k = f": [(3,), (None,)],
    "SELECT w FROM b ANTI JOIN a ON f = k": [(30,), (40,)],
}


@pytest.mark.parametrize("sql", MIXED_KEY_JOINS)
def test_mixed_int_float_join_keys(sql):
    """``k = f`` joins an int64 to a float64 key by value, whichever side
    builds: 2 matches 2.0, -0.0 and NaN match no int here, NULL nothing."""
    database = Database()
    database.create_table("a", {"k": "int64"})
    database.create_table("b", {"f": "float64", "w": "int64"})
    database.insert("a", {"k": [1, 2, 3, None]})
    database.insert("b", {"f": [1.0, 2.0, -0.0, float("nan")], "w": [10, 20, 30, 40]})
    expected = normalized_rows(MIXED_KEY_JOINS[sql])
    for engine in ["naive"] + ENGINES:
        assert normalized_rows(database.sql(sql, engine=engine)) == expected, engine


# ----------------------------------------------------------------------
# Sort keys and aggregates at the edges of their types
# ----------------------------------------------------------------------
#: The value columns of ``_extremes_db`` and their types.
EXTREME_COLUMNS = {
    "big": DataType.INT64,
    "low": DataType.INT64,
    "f": DataType.FLOAT64,
    "s": DataType.STRING,
    "b": DataType.BOOL,
    "d": DataType.DATE,
}

#: Partitions (``p``) of ``_extremes_db``; each one's first row by ``id``
#: holds NULL in every value column.
EXTREME_PARTITIONS = 4


def _extremes_db() -> Database:
    """Keys a float64 or a negation cannot carry: nullable int64 beyond
    2**53, int64 min under DESC, infinities next to NULL, signed zeros —
    plus a BOOL and a DATE column, and a leading all-NULL row per ``p``."""
    inf = float("inf")
    cycles = {
        "big": [2**53 + 1, 2**53, None, 2**53 + 2, -(2**53) - 1, 7],
        "low": [-(2**63), 0, 5, None, 2**63 - 1, -1, -(2**63) + 1],
        "f": [None, inf, 1.0, -inf, -0.0, 0.0, 1e308, -1e308, 0.5],
        "s": ["b", None, "", "ä", "a"],
        "b": [True, None, False, False, True],
        "d": [datetime.date(1970, 1, 1), datetime.date(2038, 1, 19), None,
              datetime.date(1900, 2, 28), datetime.date(9999, 12, 31)],
    }
    database = Database()
    database.create_table(
        "x",
        {"id": "int64", "p": "int64",
         **{name: dtype.value for name, dtype in EXTREME_COLUMNS.items()}},
    )
    rows = 63
    database.insert(
        "x",
        {
            "id": list(range(rows)),
            "p": [i % EXTREME_PARTITIONS for i in range(rows)],
            **{
                name: [
                    None if i < EXTREME_PARTITIONS else c[i % len(c)]
                    for i in range(rows)
                ]
                for name, c in cycles.items()
            },
        },
    )
    return database


#: Total orders (``id`` breaks every tie): the row sequence must match.
EXTREME_ORDER_QUERIES = [
    "SELECT id, big FROM x ORDER BY big, id",
    "SELECT id, low FROM x ORDER BY low DESC, id",
    "SELECT id, f FROM x ORDER BY f, id DESC",
    "SELECT id, s, f, low, big FROM x ORDER BY s DESC, f DESC, low, big DESC, id",
    "SELECT id, low, big FROM x ORDER BY low, big DESC, id LIMIT 20",
]

EXTREME_WINDOW_QUERIES = [
    "SELECT id, row_number() OVER (ORDER BY f, id) AS rn FROM x",
    "SELECT id, row_number() OVER (ORDER BY f DESC, id) AS rn FROM x",
    "SELECT id, rank() OVER (PARTITION BY s ORDER BY low DESC) AS rk, "
    "lag(id) OVER (PARTITION BY s ORDER BY big, f, id) AS lg FROM x",
    "SELECT s, percentile_disc(0.5) WITHIN GROUP (ORDER BY low DESC), "
    "median(low), mode() WITHIN GROUP (ORDER BY big DESC) FROM x GROUP BY s",
]


def _extreme_aggregate_queries():
    """Every declared primitive over every column its domain admits, one
    call per query: as a GROUP BY, a DISTINCT aggregate and a whole-partition
    / running / sliding window (holistic aggregates: whole partition only).
    SUM runs over ``big`` only: sums over ``low`` overflow int64."""
    windows = {
        "whole": "PARTITION BY p",
        "running": "PARTITION BY p ORDER BY id",
        "sliding": "PARTITION BY p ORDER BY id ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING",
    }
    queries = []
    for func, spec in PRIMITIVES.items():
        columns = [None] if spec.domain is None else [
            name for name, dtype in EXTREME_COLUMNS.items()
            if spec.domain.admits(dtype) and (func != "sum" or name == "big")
        ]
        shapes = ["whole"] if spec.merge is None else list(windows)
        # A percentile's end points too: 0.0 is a fraction, not a default.
        fractions = ["0.0", "0.5", "1.0"] if spec.needs_fraction else ["0.5"]
        for column in columns:
            for fraction in fractions:
                call = call_sql(func, spec, column, fraction)
                queries.append(f"SELECT p, {call} FROM x GROUP BY p")
                queries.extend(
                    f"SELECT id, {call} OVER ({windows[shape]}) AS w FROM x"
                    for shape in shapes
                )
            # ANY keeps an arbitrary element, and the DISTINCT pre-grouping
            # does not keep input order: no oracle can state that answer.
            if spec.merge is not None and column is not None and func != "any":
                queries.append(f"SELECT p, {func}(DISTINCT {column}) FROM x GROUP BY p")
    return queries


EXTREME_AGGREGATE_QUERIES = _extreme_aggregate_queries()


def _assert_declared_types(result, where):
    """Every result column has the type its schema field declares."""
    for field, column in zip(result.batch.schema, result.batch.columns):
        assert column.dtype is field.dtype, (
            f"{where}: column {field.name} is {column.dtype.value}, "
            f"declared {field.dtype.value}"
        )


@pytest.mark.parametrize(
    "sql", EXTREME_ORDER_QUERIES + EXTREME_WINDOW_QUERIES + EXTREME_AGGREGATE_QUERIES
)
def test_extreme_sort_keys_order_like_the_oracle(sql, tmp_path):
    database = _extremes_db()
    shape = list if sql in EXTREME_ORDER_QUERIES else normalized_rows
    reference = shape(database.sql(sql, engine="naive").rows())
    for layer, knobs in LAYERS.items():
        config = EngineConfig(
            num_partitions=4, morsel_size=8, spill_directory=str(tmp_path), **knobs
        )
        result = database.sql(sql, config=config)
        assert shape(result.rows()) == reference, f"{layer} diverges on: {sql}"
        _assert_declared_types(result, layer)
    result = database.sql(sql, engine="monolithic")
    assert shape(result.rows()) == reference
    _assert_declared_types(result, "monolithic")


@pytest.mark.parametrize("sql", [
    "SELECT k, count(*), sum(v) FROM t GROUP BY k",
    "SELECT k, median(v) FROM t GROUP BY k",
    "SELECT k, v, rank() OVER (PARTITION BY k ORDER BY v) FROM t",
])
def test_null_key_range_apart_from_the_value_it_encodes_as(sql):
    """Key ranges split where validity changes: the int64 a NULL key
    encodes as is a value too, and hashes it into the same partition."""
    database = Database()
    database.create_table("t", {"k": "int64", "v": "int64"})
    database.insert(
        "t", {"k": [-(2**63) + 1, None, -(2**63) + 1, None, 5], "v": [1, 2, 3, 4, 5]}
    )
    assert_engines_agree(database, sql, engines=["lolepop", "monolithic"])


#: ``x`` opens with 1, NaN, -2, 3, on which a Python sort of the values is
#: undefined; then signed zeros, infinities, NULL and a second NaN.
NAN_KEYS = [1.0, float("nan"), -2.0, 3.0, -0.0, float("inf"), 0.0, None,
            float("-inf"), float("nan"), 0.5, -0.0]

NAN_ORDER_QUERIES = [
    "SELECT id, x FROM t ORDER BY x, id",
    "SELECT id, x FROM t ORDER BY x DESC, id",
    "SELECT id, g, x FROM t ORDER BY g, x DESC, id DESC",
]

NAN_QUERIES = NAN_ORDER_QUERIES + [
    "SELECT id, row_number() OVER (ORDER BY x, id) AS rn, "
    "rank() OVER (ORDER BY x) AS rk FROM t",
    "SELECT id, row_number() OVER (PARTITION BY g ORDER BY x DESC, id) AS rn, "
    "rank() OVER (PARTITION BY g ORDER BY x DESC) AS rk FROM t",
    *(
        f"SELECT g, percentile_disc({fraction}) WITHIN GROUP (ORDER BY x{direction}) "
        "FROM t GROUP BY g"
        for fraction in ("0.0", "0.5", "1.0")
        for direction in ("", " DESC")
    ),
]


def _nan_free(rows):
    """Rows with NaN spelled out: NaN equals no value, not even itself."""
    return [
        tuple("NaN" if isinstance(v, float) and v != v else v for v in row) for row in rows
    ]


@pytest.mark.parametrize("sql", NAN_QUERIES)
def test_nan_and_signed_zero_keys_order_alike_in_every_engine(sql):
    """NaN sorts after every number and before NULL in both directions, and
    ties with NaN; -0.0 ties with 0.0. The oracle sorts so as well."""
    database = Database()
    database.create_table("t", {"id": "int64", "g": "int64", "x": "float64"})
    database.insert("t", {
        "id": list(range(len(NAN_KEYS))),
        "g": [i % 2 for i in range(len(NAN_KEYS))],
        "x": NAN_KEYS,
    })
    shape = _nan_free if sql in NAN_ORDER_QUERIES else (
        lambda rows: normalized_rows(_nan_free(rows))
    )
    reference = shape(database.sql(sql, engine="naive").rows())
    if sql == NAN_ORDER_QUERIES[0]:
        assert [x for _, x in reference] == [
            float("-inf"), -2.0, -0.0, 0.0, -0.0, 0.5, 1.0, 3.0, float("inf"),
            "NaN", "NaN", None,
        ]
    for engine in ENGINES:
        assert shape(database.sql(sql, engine=engine).rows()) == reference, engine
