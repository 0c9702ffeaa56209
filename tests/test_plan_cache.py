"""Tests for the statement skeleton, the plan/result caches, DAG-template
reuse (the parse/bind/translate-skipping fast path), and the differential
corpus for template hits: statements that share a skeleton but not their
literals."""

from __future__ import annotations

import datetime

import pytest

import numpy as np

import repro.api
import repro.lolepop.engine
from repro import Database
from repro.server.cache import PlanCache, PreparedPlan, ResultCache
from repro.sql.lexer import fill, skeleton

from tests.helpers import normalized_rows


def make_db(rows=400, plan_cache_size=256):
    db = Database(num_threads=2, plan_cache_size=plan_cache_size)
    db.create_table("t", {"g": "int64", "x": "float64"})
    rng = np.random.default_rng(3)
    db.insert(
        "t", {"g": rng.integers(0, 5, rows), "x": rng.random(rows).round(4)}
    )
    return db


def normalize_sql(text):
    """A statement's normalized text: its skeleton with the slots put back."""
    return fill(*skeleton(text))


# ---------------------------------------------------------------------------
# Normalized text and skeleton
# ---------------------------------------------------------------------------
class TestNormalizeSql:
    def test_whitespace_collapses(self):
        assert (
            normalize_sql("SELECT   x\n\tFROM  t")
            == normalize_sql("select x from t")
        )

    def test_case_folds_outside_strings(self):
        assert normalize_sql("SELECT X FROM T") == "select x from t"

    def test_string_literals_keep_case(self):
        a = normalize_sql("SELECT 'Case Matters' FROM t")
        b = normalize_sql("select 'case matters' from t")
        assert a != b
        assert "'Case Matters'" in a

    def test_quoted_identifier_preserved(self):
        assert '"MiXeD"' in normalize_sql('SELECT "MiXeD" FROM t')

    def test_escaped_quote_inside_literal(self):
        normalized = normalize_sql("SELECT 'it''s FINE' FROM t")
        assert "'it''s FINE'" in normalized
        assert normalized.endswith("from t")

    def test_whitespace_inside_literal_preserved(self):
        assert "'a  b'" in normalize_sql("SELECT  'a  b'  FROM t")

    def test_leading_trailing_space_ignored(self):
        assert normalize_sql("  SELECT 1 ") == "select 1"


class TestSkeleton:
    def test_literals_become_typed_markers(self):
        text, slots = skeleton("SELECT x FROM t WHERE a > 5 AND b < 2.5 AND c = 'Q'")
        assert text == "select x from t where a > ?i and b < ?f and c = ?s"
        assert slots == ("5", "2.5", "'Q'")

    def test_literal_values_do_not_change_the_skeleton(self):
        a = skeleton("SELECT x FROM t WHERE a > 5 AND c = 'Q'")
        b = skeleton("select  x from t where a >   77 and c = 'other'")
        assert a[0] == b[0] and a[1] != b[1]

    def test_identifiers_with_digits_are_not_literals(self):
        text, slots = skeleton('SELECT l_2x, "col1", t1.c2 FROM t9')
        assert text == 'select l_2x, "col1", t1.c2 from t9'
        assert slots == ()

    def test_number_spellings(self):
        text, slots = skeleton("SELECT .5, 1e-3, 2E+4, 7., 10 FROM t")
        assert text == "select ?f, ?f, ?f, ?f, ?i from t"
        assert slots == (".5", "1e-3", "2e+4", "7.", "10")

    def test_escaped_quotes_stay_in_one_slot(self):
        text, slots = skeleton("SELECT 'it''s', '''' FROM t")
        assert text == "select ?s, ?s from t"
        assert slots == ("'it''s'", "''''")

    def test_comments_dropped_with_their_digits_and_quotes(self):
        text, slots = skeleton(
            "SELECT x -- 42 'not a string\nFROM t /* 7 \"q\" */ WHERE y < 3"
        )
        assert text == "select x from t where y < ?i"
        assert slots == ("3",)

    def test_question_mark_outside_a_string_has_no_skeleton(self):
        assert skeleton("SELECT ? FROM t") is None
        assert skeleton("SELECT '?' FROM t") == ("select ?s from t", ("'?'",))

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, x FROM t WHERE g < 3 ORDER BY 2, x DESC LIMIT 7 OFFSET 1",
            "SELECT l_2x + .5 * 1e-3 FROM t WHERE s IN ('a', 'it''s', 'b')",
            "SELECT count(*) FROM t WHERE d < DATE '1998-09-02' AND x > -5",
            "SELECT ntile(4) OVER (ORDER BY x ROWS BETWEEN 2 PRECEDING AND "
            "CURRENT ROW), lag(x, 3, 0.0) OVER (ORDER BY x) FROM t -- 9 '\n",
            "SELECT percentile_cont(0.25) WITHIN GROUP (ORDER BY x) FROM t",
        ],
    )
    def test_slot_count_is_the_literal_count(self, sql):
        from repro.sql import TokenType, tokenize

        literals = [
            token for token in tokenize(sql)
            if token.type in (TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING)
        ]
        text, slots = skeleton(sql)
        assert len(slots) == len(literals) == text.count("?")
        assert fill(text, slots) == normalize_sql(sql)


# ---------------------------------------------------------------------------
# Result-cache admission (the LRU itself: tests/test_bounded.py)
# ---------------------------------------------------------------------------
class TestLru:
    def test_result_cache_row_bound(self):
        class FakeResult:
            def __init__(self, n):
                self.n = n

            def __len__(self):
                return self.n

        cache = ResultCache(4, max_rows=10)
        key = ("select 1", 0, "lolepop")
        assert cache.admit(key, FakeResult(11)) is False
        assert cache.get(key) is None
        assert cache.admit(key, FakeResult(10)) is True
        assert cache.get(key).n == 10


# ---------------------------------------------------------------------------
# Plan cache behaviour on the Database facade
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_hit_skips_parse_and_bind(self, monkeypatch):
        db = make_db()
        calls = {"parse": 0, "bind": 0}
        real_parse = repro.api.parse_sql
        real_bind = repro.api.bind

        def counting_parse(*args):
            calls["parse"] += 1
            return real_parse(*args)

        def counting_bind(*args):
            calls["bind"] += 1
            return real_bind(*args)

        monkeypatch.setattr(repro.api, "parse_sql", counting_parse)
        monkeypatch.setattr(repro.api, "bind", counting_bind)

        sql = "SELECT g, median(x) FROM t GROUP BY g"
        first = db.sql(sql).rows()
        assert calls == {"parse": 1, "bind": 1}
        # Hit: different whitespace/case, same normalized statement.
        second = db.sql("select  g,  median(x) from t group by g").rows()
        assert calls == {"parse": 1, "bind": 1}
        assert second == first

    def test_hit_skips_translate(self, monkeypatch):
        db = make_db()
        calls = {"translate": 0}
        real_translate = repro.lolepop.engine.translate_statistics

        def counting_translate(*args, **kwargs):
            calls["translate"] += 1
            return real_translate(*args, **kwargs)

        monkeypatch.setattr(
            repro.lolepop.engine, "translate_statistics", counting_translate
        )
        sql = "SELECT g, median(x) FROM t GROUP BY g"
        first = db.sql(sql).rows()
        translated_once = calls["translate"]
        assert translated_once >= 1
        assert db.sql(sql).rows() == first
        # Second run cloned the cached DAG templates instead.
        assert calls["translate"] == translated_once

    def test_dag_reuse_shows_in_the_trace(self):
        # A reused DAG is one no ``translate`` stage built; the root says
        # the plan came from the cache.
        db = make_db()
        sql = "SELECT g, median(x) FROM t GROUP BY g"
        db.sql(sql)
        traced = db.sql(sql, config=db.config.clone(collect_trace=True))
        root = traced.trace.root
        assert root.attrs["plan_cache_hit"] is True
        assert traced.dags and not [
            span for span in root.walk("stage") if span.name == "translate"
        ]

    def test_dml_invalidates(self, monkeypatch):
        db = make_db(rows=10)
        calls = {"parse": 0}
        real_parse = repro.api.parse_sql

        def counting_parse(*args):
            calls["parse"] += 1
            return real_parse(*args)

        monkeypatch.setattr(repro.api, "parse_sql", counting_parse)
        sql = "SELECT count(*) FROM t"
        assert db.sql(sql).rows() == [(10,)]
        # One row written into ten is not more than STALE_FRACTION of them:
        # the entry stays current and its plan reads the appended row.
        db.insert("t", {"g": [9], "x": [1.0]})
        assert db.sql(sql).rows() == [(11,)]
        assert calls["parse"] == 1
        # A second row is: t is stale since the build, the entry misses.
        db.insert("t", {"g": [9], "x": [1.0]})
        assert db.sql(sql).rows() == [(12,)]
        assert calls["parse"] == 2

    def test_ddl_invalidates(self):
        db = make_db(rows=10)
        sql = "SELECT count(*) FROM t"
        db.sql(sql)
        misses_before = db.plan_cache.misses
        db.create_table("extra", {"a": "int64"})
        db.sql(sql)
        assert db.plan_cache.misses == misses_before + 1

    def test_explain_not_cached(self):
        db = make_db(rows=10)
        db.sql("EXPLAIN SELECT g FROM t")
        db.sql("EXPLAIN ANALYZE SELECT count(*) FROM t")
        assert len(db.plan_cache) == 0

    def test_disabled_cache(self, monkeypatch):
        db = make_db(plan_cache_size=0)
        assert db.plan_cache is None
        calls = {"parse": 0}
        real_parse = repro.api.parse_sql

        def counting_parse(*args):
            calls["parse"] += 1
            return real_parse(*args)

        monkeypatch.setattr(repro.api, "parse_sql", counting_parse)
        sql = "SELECT count(*) FROM t"
        db.sql(sql)
        db.sql(sql)
        assert calls["parse"] == 2

    def test_config_fingerprint_separates_templates(self):
        db = make_db()
        sql = "SELECT g, median(x) FROM t GROUP BY g"
        base = db.sql(sql).rows()
        other = db.sql(
            sql, config=db.config.clone(num_partitions=4, elide_sorts=False)
        ).rows()
        # Partitioning changes legal output order, not content.
        assert sorted(other) == sorted(base)
        entry = db.prepare(sql)
        fingerprints = {key[0] for key in entry.dag_templates}
        assert len(fingerprints) == 2

    def test_prepare_returns_cached_entry(self):
        db = make_db(rows=20)
        sql = "SELECT g, sum(x) FROM t GROUP BY g"
        first = db.prepare(sql)
        second = db.prepare(sql)
        assert second is first
        assert isinstance(first, PreparedPlan)

    def test_only_selects_cached(self):
        db = make_db(rows=20)
        db.create_table_as("copy_t", "SELECT g, x FROM t")
        assert db.table("copy_t").num_rows == 20
        # Everything in the cache is a reusable SELECT. (Keys are the
        # skeleton plus the pinned slot texts; staleness is tracked per
        # entry via table-version dependencies, not in the key.)
        for entry in db.plan_cache.values():
            assert entry.skeleton.startswith("select")


# ---------------------------------------------------------------------------
# DAG template cloning
# ---------------------------------------------------------------------------
class TestDagClone:
    def _template(self):
        db = make_db()
        sql = "SELECT g, median(x), sum(x) FROM t GROUP BY g"
        db.sql(sql)
        entry = db.prepare(sql)
        assert entry.dag_templates
        return next(iter(entry.dag_templates.values()))

    def test_clone_is_deep_over_nodes(self):
        template = self._template()
        clone = template.clone()
        originals = {id(node) for node in template.topological_order()}
        for node in clone.topological_order():
            assert id(node) not in originals

    def test_clone_preserves_structure(self):
        template = self._template()
        clone = template.clone()
        original_nodes = template.topological_order()
        cloned_nodes = clone.topological_order()
        assert [type(n) for n in cloned_nodes] == [
            type(n) for n in original_nodes
        ]
        index_of = {id(n): i for i, n in enumerate(original_nodes)}
        for original, twin in zip(original_nodes, cloned_nodes):
            assert [index_of[id(i)] for i in original.inputs] == [
                cloned_nodes.index(i) for i in twin.inputs
            ]
            assert [index_of[id(a)] for a in original.after] == [
                cloned_nodes.index(a) for a in twin.after
            ]

    def test_clone_resets_stats(self):
        template = self._template()
        for node in template.topological_order():
            node.span = object()  # as if the template itself had executed
        clone = template.clone()
        assert all(n.span is None for n in clone.topological_order())

    def test_templates_never_executed(self):
        # Executing a query twice must leave the cached template pristine
        # (spans are attached per run to clones, not to the template).
        db = make_db()
        sql = "SELECT g, median(x) FROM t GROUP BY g"
        db.sql(sql)
        db.sql(sql, config=db.config.clone(collect_trace=True))
        entry = db.prepare(sql)
        for template in entry.dag_templates.values():
            assert all(n.span is None for n in template.topological_order())


# ---------------------------------------------------------------------------
# PlanCache.lookup
# ---------------------------------------------------------------------------
class TestPlanCacheLookup:
    class _FakeCatalog:
        """One table ``t`` whose version (rows written) and row count the
        test moves by hand."""

        def __init__(self, version=7, num_rows=100):
            self.version = version
            self.num_rows = num_rows
            self.ddl_version = 1

        def get(self, name):
            assert name == "t"
            return self  # stands in for the table: ``version``, ``num_rows``

        def entry(self, sql="SELECT 1", **kwargs):
            return PreparedPlan(
                sql, None, None,
                table_deps=(("t", self.version, self.num_rows),),
                ddl_version=self.ddl_version,
                **kwargs,
            )

    def test_miss_then_hit(self):
        cache = PlanCache(8)
        catalog = self._FakeCatalog()
        built = []

        def build():
            entry = catalog.entry()
            built.append(entry)
            return entry

        first, hit1 = cache.lookup("SELECT 1", catalog, lambda shape: build())
        second, hit2 = cache.lookup("select  1", catalog, lambda shape: build())
        assert (hit1, hit2) == (False, True)
        assert second is first
        assert len(built) == 1

    def test_version_change_misses(self):
        cache = PlanCache(8)
        catalog = self._FakeCatalog(version=100, num_rows=100)
        build = lambda shape: catalog.entry()  # noqa: E731
        cache.lookup("SELECT 1", catalog, build)
        # Ten rows written into a hundred: not yet stale.
        catalog.version, catalog.num_rows = 110, 110
        _, hit = cache.lookup("SELECT 1", catalog, build)
        assert hit is True
        # Eleven are: the entry misses and is rebuilt.
        catalog.version, catalog.num_rows = 111, 111
        _, hit = cache.lookup("SELECT 1", catalog, build)
        assert hit is False

    def test_reuse_entries_need_equal_versions(self):
        # A template under ``reuse`` names the snapshot it captured.
        cache = PlanCache(8)
        catalog = self._FakeCatalog(version=100, num_rows=100)
        build = lambda shape: catalog.entry(reuse=True)  # noqa: E731
        cache.lookup("SELECT 1", catalog, build)
        _, hit = cache.lookup("SELECT 1", catalog, build)
        assert hit is True
        catalog.version += 1
        _, hit = cache.lookup("SELECT 1", catalog, build)
        assert hit is False

    def test_uncacheable_not_stored(self):
        cache = PlanCache(8)
        catalog = self._FakeCatalog()
        build = lambda shape: catalog.entry("EXPLAIN SELECT 1", cacheable=False)  # noqa: E731
        cache.lookup("EXPLAIN SELECT 1", catalog, build)
        _, hit = cache.lookup("EXPLAIN SELECT 1", catalog, build)
        assert hit is False
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Template hits: statements of one skeleton, different literals
# ---------------------------------------------------------------------------
def make_corpus_db(**kwargs):
    db = Database(num_threads=2, **kwargs)
    rng = np.random.default_rng(11)
    rows = 300
    db.create_table(
        "t",
        {"g": "int64", "x": "float64", "o": "int64", "s": "string", "d": "date"},
    )
    db.insert(
        "t",
        {
            "g": [int(v) for v in rng.integers(0, 5, rows)],
            "x": [
                None if i % 17 == 0 else float(v)
                for i, v in enumerate(rng.random(rows).round(3))
            ],
            "o": [int(v) for v in rng.permutation(rows)],
            "s": [f"s{v}" for v in rng.integers(0, 6, rows)],
            "d": [
                datetime.date(2020, 1, 1) + datetime.timedelta(days=int(v))
                for v in rng.integers(0, 365, rows)
            ],
        },
    )
    db.create_table("u", {"k": "int64", "w": "float64"})
    db.insert("u", {"k": [0, 1, 2, 3, 4, 2], "w": [0.1, 0.5, 0.9, 0.3, 0.7, 0.2]})
    return db


#: (template, literal tuples in the order they run). Every tuple after the
#: first is another statement of the template's skeleton: with the plan
#: cache on, a template hit whenever its pinned slots agree with an entry.
TEMPLATE_CORPUS = [
    # Free slots: evaluated by the relational executor on every run.
    ("SELECT count(*), sum(x) FROM t WHERE o < {}", [(50,), (120,), (50,), (0,)]),
    (
        "SELECT t.g, count(*), sum(u.w) FROM t JOIN u ON t.g = u.k AND u.w > {} "
        "GROUP BY t.g",
        [(0.25,), (0.6,), (0.0,)],
    ),
    (
        "SELECT g, sum(CASE WHEN x > {} THEN 1 ELSE 0 END) AS n FROM t GROUP BY g",
        [(0.5,), (0.2,), (0.9,)],
    ),
    ("SELECT count(*) FROM t WHERE g - 2 > -{}", [(1,), (2,), (0,)]),
    (
        "SELECT count(*), min(d) FROM t WHERE d < '{}'",
        [("2020-03-01",), ("2020-09-15",), ("2020-13-45",), ("2020-05-01",)],
    ),
    (
        "SELECT count(*) FROM t WHERE d >= DATE '{}' AND o < {}",
        [("2020-06-01", 100), ("2020-02-30", 100), ("2020-11-01", 250)],
    ),
    # Int and float in one position: two skeletons, both answers right.
    ("SELECT count(*) FROM t WHERE x < {}", [(1,), (0.5,), (0,), (0.25,)]),
    ("SELECT count(*) FROM t WHERE g IN ({})", [("1, 2",), ("3",), ("0, 4",), ("2",)]),
    (
        "SELECT count(*), max(o) FROM t WHERE s = '{}'",
        [("s1",), ("absent",), ("s3",), ("it''s",)],
    ),
    ("SELECT count(*) FROM t -- 42 'x' \"y\"\nWHERE o < {}", [(10,), (30,)]),
    ("SELECT g, x * {} AS y FROM t WHERE o < {} ORDER BY o", [(2, 5), (3, 8), (2, 5)]),
    (
        "SELECT count(*) FROM (SELECT g, sum(x) AS sx FROM t WHERE o < {} "
        "GROUP BY g) AS q WHERE sx > {}",
        [(100, 5.0), (200, 10.0), (100, 10.0)],
    ),
    (
        "SELECT o, coalesce(NULL, x + {}) AS z FROM t WHERE o < 6 ORDER BY o",
        [(1,), (2,)],
    ),
    # Pinned: read as a value by the parser or the binder.
    ("SELECT o, x FROM t ORDER BY x, o LIMIT {}", [(3,), (5,), (3,)]),
    ("SELECT o FROM t ORDER BY o LIMIT 4 OFFSET {}", [(2,), (7,)]),
    ("SELECT g, o FROM t ORDER BY {}, o LIMIT 5", [(1,), (2,)]),
    (
        "SELECT g, percentile_disc({}) WITHIN GROUP (ORDER BY x) AS p FROM t "
        "GROUP BY g",
        [(0.25,), (0.75,)],
    ),
    (
        "SELECT o, sum(x) OVER (ORDER BY o ROWS BETWEEN {} PRECEDING AND "
        "CURRENT ROW) AS w FROM t WHERE o < 30",
        [(1,), (4,)],
    ),
    (
        "SELECT o, lag(x, {}) OVER (ORDER BY o) AS l, ntile({}) OVER "
        "(ORDER BY o) AS n FROM t WHERE o < 30",
        [(1, 2), (3, 4)],
    ),
    # Pinned: one literal bound twice (CASE's operand, once per WHEN).
    (
        "SELECT count(*) FROM t WHERE CASE g + {} WHEN 2 THEN 1 WHEN 3 THEN 1 "
        "ELSE 0 END = 1",
        [(1,), (0,), (2,)],
    ),
    # Pinned: merged by value while binding.
    ("SELECT sum(x + {}) AS a, sum(x + {}) AS b FROM t", [(1, 1), (2, 1), (1, 2)]),
    ("SELECT g + {} AS k, count(*) FROM t GROUP BY g + {}", [(1, 1), (2, 2), (1, 2)]),
    (
        "SELECT g + {} AS a, g + {} AS b, count(*) FROM t "
        "GROUP BY ROLLUP (g + {}, g + {})",
        [(1, 2, 1, 2), (2, 1, 2, 1), (1, 2, 2, 1)],
    ),
    # Pinned: baked into a LOLEPOP of the DAG template.
    (
        "SELECT o, lag(x, 1, {}) OVER (ORDER BY o) AS l FROM t WHERE o < 10",
        [(0.5,), (9.0,)],
    ),
    (
        "SELECT o, x * {} AS y, row_number() OVER (ORDER BY x, o) AS r FROM t "
        "ORDER BY r LIMIT 6",
        [(2,), (3,)],
    ),
    (
        "SELECT g, sum(x * {} + coalesce(lead(x) OVER (PARTITION BY g ORDER BY o), "
        "0.0)) AS v FROM t GROUP BY g",
        [(2,), (3,)],
    ),
]

CORPUS_STATEMENTS = [
    template.format(*literals)
    for template, runs in TEMPLATE_CORPUS
    for literals in runs
]


def _answer(run, sql):
    """``("ok", canonical rows)`` or ``("error", type and message)``."""
    from repro.bench.corpora import canonical_rows

    try:
        return "ok", canonical_rows(run(sql))
    except Exception as error:  # noqa: BLE001 — the error is the answer
        return "error", f"{type(error).__name__}: {error}"


@pytest.fixture(scope="module")
def oracle_answers():
    oracle = make_corpus_db(plan_cache_size=0)
    return {
        sql: _answer(lambda q: oracle.sql(q, engine="naive"), sql)
        for sql in CORPUS_STATEMENTS
    }


class TestTemplateHitsDifferential:
    @pytest.mark.parametrize("reuse", [False, True], ids=["reuse_off", "reuse_on"])
    @pytest.mark.parametrize("via", ["direct", "service"])
    @pytest.mark.parametrize("plan_cache_size", [256, 0])
    def test_corpus_matches_oracle(self, oracle_answers, plan_cache_size, via, reuse):
        from repro.server import QueryService, ServiceConfig

        db = make_corpus_db(plan_cache_size=plan_cache_size, reuse=reuse)
        service = None
        run = db.sql
        if via == "service":
            service = QueryService(db, ServiceConfig(result_cache_size=64))
            session = service.session()
            run = lambda q: session.execute(q, timeout=60)  # noqa: E731
        try:
            wrong = [
                sql for sql in CORPUS_STATEMENTS
                if _answer(run, sql) != oracle_answers[sql]
            ]
        finally:
            if service is not None:
                service.shutdown()
        assert wrong == []
        if plan_cache_size:
            assert db.plan_cache.hits > 0

    def test_free_slots_hit_and_skip_translation(self, monkeypatch):
        calls = {"translate": 0}
        real = repro.lolepop.engine.translate_statistics

        def counting(*args, **kwargs):
            calls["translate"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.lolepop.engine, "translate_statistics", counting)
        db = make_corpus_db()
        template = "SELECT g, sum(CASE WHEN x > {} THEN 1 ELSE 0 END) AS n FROM t GROUP BY g"
        db.sql(template.format(0.5))
        translated = calls["translate"]
        prepared, hit = db._prepare_cached(template.format(0.25))
        assert hit and prepared.pinned == ()
        db.sql(template.format(0.25))
        assert calls["translate"] == translated

    @pytest.mark.parametrize(
        "template, first, second",
        [
            ("SELECT o FROM t ORDER BY o LIMIT {}", (3,), (4,)),
            ("SELECT g, percentile_disc({}) WITHIN GROUP (ORDER BY x) FROM t GROUP BY g",
             (0.25,), (0.5,)),
            ("SELECT count(*) FROM t WHERE g > -{}", (1,), (2,)),
            ("SELECT sum(x + {}), sum(x + {}) FROM t", (1, 1), (2, 1)),
            ("SELECT o, lag(x, 1, {}) OVER (ORDER BY o) FROM t", (0.5,), (1.5,)),
        ],
    )
    def test_pinned_slots_key_on_their_text(self, template, first, second):
        db = make_corpus_db()
        db.sql(template.format(*first))
        prepared, hit = db._prepare_cached(template.format(*second))
        assert not hit and prepared.pinned

    def test_reuse_pins_literals_below_a_region(self):
        template = "SELECT g, sum(x) FROM t WHERE o < {} GROUP BY g"
        plain, reusing = make_corpus_db(), make_corpus_db(reuse=True)
        for db in (plain, reusing):
            db.sql(template.format(10))
        assert plain._prepare_cached(template.format(20))[1] is True
        assert reusing._prepare_cached(template.format(20))[1] is False


class TestStatementsKeepTheirLiterals:
    TEMPLATE = "SELECT count(*) FROM t WHERE o < {}"

    def test_result_cache_keys_on_the_slot_values(self):
        from repro.server import QueryService, ServiceConfig

        db = make_corpus_db()
        with QueryService(db, ServiceConfig(result_cache_size=8)) as service:
            session = service.session()
            first = session.submit(self.TEMPLATE.format(10))
            second = session.submit(self.TEMPLATE.format(20))
            # The repeat can only hit once the first result is cached.
            rows = [t.result(timeout=60).rows() for t in (first, second)]
            again = session.submit(self.TEMPLATE.format(10))
            rows.append(again.result(timeout=60).rows())
        assert rows == [[(10,)], [(20,)], [(10,)]]
        assert [t.from_result_cache for t in (first, second, again)] == [
            False, False, True,
        ]

    def test_record_names_the_statement_with_its_own_literals(self):
        from repro.observability.telemetry import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig(slow_query_threshold_s=0.0))
        db = make_corpus_db(telemetry=telemetry)
        db.sql(self.TEMPLATE.format(10))
        db.sql("select  count(*) FROM t where o <   25")
        record = telemetry.slowlog.snapshot()[-1]
        assert record["plan_cache_hit"] is True
        assert record["sql"] == "select count(*) from t where o < 25"

    def test_drift_replan_discards_the_cached_entry(self, monkeypatch):
        db = make_corpus_db()
        db.sql(self.TEMPLATE.format(10))
        entry = db.prepare(self.TEMPLATE.format(10))
        assert db.plan_cache.peek(entry.key) is entry
        monkeypatch.setattr(
            db.telemetry, "record_execution", lambda *args, **kwargs: True
        )
        db.sql(self.TEMPLATE.format(30))  # a template hit that drifted
        assert db.plan_cache.peek(entry.key) is None
        assert db._prepare_cached(self.TEMPLATE.format(40))[1] is False

    def test_estimates_come_from_the_statements_own_literals(self):
        from repro.observability.telemetry import Telemetry

        db = make_corpus_db(telemetry=Telemetry())
        template = "SELECT o, x FROM t WHERE o < {} ORDER BY o"
        db.sql(template.format(10))
        variant, hit = db._prepare_cached(template.format(250))
        assert hit
        db.execute_prepared(variant)
        own = db.estimator.rows(db.plan(template.format(250)))
        assert variant.est_rows == own != db.estimator.rows(db.plan(template.format(10)))
        # The DAG names the variant's plan, so EXPLAIN ANALYZE and the
        # feedback store estimate from o < 250, not from o < 10.
        traced = db.config.clone(collect_trace=True)
        result = db.execute_prepared(variant, config=traced)
        assert result.dags[0].region_plan is variant.plan


class TestGenericDistinctLowering:
    """A template hit reuses the DISTINCT lowering the translator priced for
    the first statement's literals. A free Filter slot can move the
    estimated input across §3.3's decision boundary — from a handful of
    rows (the re-sort wins) to the whole table (the hash pair wins) — which
    may cost speed but never correctness: both lowerings agree with the
    oracle."""

    TEMPLATE = (
        "SELECT g, median(x), count(DISTINCT h) FROM t WHERE x < {} GROUP BY g"
    )

    @staticmethod
    def _db():
        db = Database(num_threads=2)
        db.create_table("t", {"g": "int64", "h": "int64", "x": "float64"})
        rng = np.random.default_rng(3)
        rows = 2000
        db.insert(
            "t",
            {
                "g": rng.integers(0, 5, rows),
                "h": rng.integers(0, 10, rows),
                "x": rng.random(rows).round(4),
            },
        )
        return db

    @pytest.mark.parametrize(
        "first, second", [("0.002", "2.0"), ("2.0", "0.002")],
        ids=["handful-then-table", "table-then-handful"],
    )
    def test_a_hit_keeps_the_first_lowering_and_the_answer(self, first, second):
        db = self._db()
        lowering = {
            lit: db.explain_lolepop(self.TEMPLATE.format(lit)).count("HASHAGG")
            for lit in (first, second)
        }
        assert sorted(lowering.values()) == [0, 2]  # across the boundary
        runs = [db.sql(self.TEMPLATE.format(first))]
        prepared, hit = db._prepare_cached(self.TEMPLATE.format(second))
        assert hit and prepared.pinned == ()
        runs.append(db.sql(self.TEMPLATE.format(second)))
        for run in runs:
            assert run.dags[0].operator_names().count("HASHAGG") == lowering[first]
        for lit, run in zip((first, second), runs):
            oracle = db.sql(self.TEMPLATE.format(lit), engine="naive")
            assert normalized_rows(run) == normalized_rows(oracle)
        # An append below the staleness threshold keeps the entry and its
        # lowering; one past it re-collects the statistics, and the next
        # statement misses and is priced for its own literal.
        db.insert("t", {"g": [0], "h": [0], "x": [0.5]})
        kept = db.sql(self.TEMPLATE.format(second))
        assert kept.dags[0].operator_names().count("HASHAGG") == lowering[first]
        rows = db.table("t").num_rows // 10 + 1
        db.insert("t", {"g": [0] * rows, "h": [0] * rows, "x": [0.5] * rows})
        _, hit = db._prepare_cached(self.TEMPLATE.format(second))
        assert not hit
        again = db.sql(self.TEMPLATE.format(second))
        assert again.dags[0].operator_names().count("HASHAGG") == lowering[second]


# ---------------------------------------------------------------------------
# Answers across appends: an entry stays current until its tables are stale
# (``repro.stats.is_stale``), and a hit reads the rows appended since
# ---------------------------------------------------------------------------
class TestAnswersAcrossAppends:
    SCHEMA = {"g": "int64", "x": "float64", "s": "string"}

    def _db(self, rows=200):
        """A cached database over ``t`` and the rows it holds, column-wise."""
        rng = np.random.default_rng(5)
        data = {
            "g": [int(v) for v in rng.integers(0, 5, rows)],
            "x": [float(v) for v in rng.random(rows).round(4)],
            "s": [["alpha", "beta", "gamma"][int(v)] for v in rng.integers(0, 3, rows)],
        }
        db = Database(num_threads=2)
        db.create_table("t", self.SCHEMA)
        db.insert("t", data)
        return db, data

    @staticmethod
    def _append(db, data, rows):
        db.insert("t", rows)
        for name, values in rows.items():
            data[name].extend(values)

    def _check(self, db, data, sql, hit=True):
        """Run ``sql`` as a plan-cache hit (or miss); its rows must equal
        the naive engine's and a fresh database's."""
        counter = "hits" if hit else "misses"
        before = getattr(db.plan_cache, counter)
        got = normalized_rows(db.sql(sql))
        assert getattr(db.plan_cache, counter) == before + 1
        fresh = Database(num_threads=2, plan_cache_size=0)
        fresh.create_table("t", self.SCHEMA)
        if data["g"]:
            fresh.insert("t", data)
        assert got == normalized_rows(db.sql(sql, engine="naive"))
        assert got == normalized_rows(fresh.sql(sql))
        return got

    def test_a_string_appended_after_the_build_is_found_through_a_hit(self):
        db, data = self._db()
        template = "SELECT s, count(*), sum(x) FROM t WHERE s = '{}' GROUP BY s"
        # Built while 'zeta' is in no dictionary of t.
        assert db.sql(template.format("zeta")).rows() == []
        self._append(db, data, {"g": [1, 2], "x": [0.5, 0.25], "s": ["zeta", "omega"]})
        assert self._check(db, data, template.format("zeta")) == [("zeta", 1, 0.5)]
        # Another literal binds into the same plan: a template hit.
        assert self._check(db, data, template.format("omega")) == [("omega", 1, 0.25)]

    def test_an_int_key_far_past_the_old_maximum_through_a_hit(self):
        db, data = self._db()
        template = "SELECT g, s, count(*), sum(x) FROM t WHERE x < {} GROUP BY g, s"
        db.sql(template.format(0.5))
        far = 1 << 40
        self._append(
            db, data,
            {"g": [far, far, -far], "x": [0.125, 0.25, 0.375], "s": ["alpha"] * 3},
        )
        for literal in (0.5, 0.75):
            got = self._check(db, data, template.format(literal))
            assert (far, "alpha", 2, 0.375) in got and (-far, "alpha", 1, 0.375) in got

    def test_the_threshold_keeps_then_drops_the_entry_and_the_statistics(
        self, monkeypatch
    ):
        db, data = self._db(rows=200)
        calls = {"parse": 0}
        real_parse = repro.api.parse_sql

        def counting_parse(*args):
            calls["parse"] += 1
            return real_parse(*args)

        monkeypatch.setattr(repro.api, "parse_sql", counting_parse)
        template = "SELECT g, median(x), count(DISTINCT s) FROM t WHERE x < {} GROUP BY g"
        db.sql(template.format(0.5))
        statistics = db.estimator._statistics
        stats = statistics.table_stats("t")
        # 20 rows written into 200: not more than STALE_FRACTION of them.
        self._append(db, data, {"g": [7] * 20, "x": [0.125] * 20, "s": ["delta"] * 20})
        db.sql(template.format(0.25))
        assert calls["parse"] == 1
        self._check(db, data, template.format(0.25))
        assert statistics.table_stats("t") is stats
        # One more row is: the statistics are re-collected and the entry misses.
        self._append(db, data, {"g": [7], "x": [0.125], "s": ["delta"]})
        recollected = statistics.table_stats("t")
        assert recollected is not stats and recollected.rows == 221
        parsed = calls["parse"]
        self._check(db, data, template.format(0.25), hit=False)
        assert calls["parse"] > parsed

    def test_a_truncate_replans(self):
        db, data = self._db()
        sql = "SELECT g, count(*), sum(x) FROM t GROUP BY g"
        db.sql(sql)
        db.table("t").truncate()
        refill = {name: values[:50] for name, values in data.items()}
        for values in data.values():
            values.clear()
        assert self._check(db, data, sql, hit=False) == []
        self._append(db, data, refill)
        self._check(db, data, sql, hit=False)
        self._check(db, data, sql)
