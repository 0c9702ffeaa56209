"""Tests for SQL normalization, the plan/result caches, and DAG-template
reuse (the parse/bind/translate-skipping fast path)."""

from __future__ import annotations

import pytest

import numpy as np

import repro.api
import repro.lolepop.engine
from repro import Database
from repro.server.cache import (
    PlanCache,
    PreparedPlan,
    ResultCache,
    _LruCache,
    normalize_sql,
)


def make_db(rows=400, plan_cache_size=256):
    db = Database(num_threads=2, plan_cache_size=plan_cache_size)
    db.create_table("t", {"g": "int64", "x": "float64"})
    rng = np.random.default_rng(3)
    db.insert(
        "t", {"g": rng.integers(0, 5, rows), "x": rng.random(rows).round(4)}
    )
    return db


# ---------------------------------------------------------------------------
# normalize_sql
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


# ---------------------------------------------------------------------------
# LRU machinery
# ---------------------------------------------------------------------------
class TestLru:
    def test_capacity_bound_and_eviction_order(self):
        cache = _LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_hit_rate(self):
        cache = _LruCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("nope")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            _LruCache(0)

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

        def counting_parse(text):
            calls["parse"] += 1
            return real_parse(text)

        def counting_bind(stmt, catalog):
            calls["bind"] += 1
            return real_bind(stmt, catalog)

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

    def test_dag_reuse_counted_in_profile(self):
        db = make_db()
        sql = "SELECT g, median(x) FROM t GROUP BY g"
        db.sql(sql)
        profiled = db.sql(
            sql, config=db.config.clone(collect_metrics=True)
        )
        assert profiled.profile.counters.get("plan_cache.dag_reuse", 0) >= 1

    def test_dml_invalidates(self, monkeypatch):
        db = make_db(rows=10)
        calls = {"parse": 0}
        real_parse = repro.api.parse_sql

        def counting_parse(text):
            calls["parse"] += 1
            return real_parse(text)

        monkeypatch.setattr(repro.api, "parse_sql", counting_parse)
        sql = "SELECT count(*) FROM t"
        assert db.sql(sql).rows() == [(10,)]
        db.insert("t", {"g": [9], "x": [1.0]})
        # Catalog version moved: the old entry no longer matches.
        assert db.sql(sql).rows() == [(11,)]
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

        def counting_parse(text):
            calls["parse"] += 1
            return real_parse(text)

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
        # Everything in the cache is a reusable SELECT. (Keys are plain
        # normalized-SQL strings; staleness is tracked per entry via
        # table-version dependencies, not in the key.)
        for normalized in list(db.plan_cache._entries):
            assert normalized.startswith("select")


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
        db.sql(sql, config=db.config.clone(collect_metrics=True))
        entry = db.prepare(sql)
        for template in entry.dag_templates.values():
            assert all(n.span is None for n in template.topological_order())


# ---------------------------------------------------------------------------
# PlanCache.lookup
# ---------------------------------------------------------------------------
class TestPlanCacheLookup:
    class _FakeCatalog:
        """One table ``t`` whose version the test moves by hand."""

        def __init__(self, version=7):
            self.version = version
            self.ddl_version = 1

        def get(self, name):
            assert name == "t"
            return self  # stands in for the table: carries ``version``

        def entry(self, sql="SELECT 1", **kwargs):
            return PreparedPlan(
                sql, None, None, self.version,
                table_deps=(("t", self.version),),
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

        first, hit1 = cache.lookup("SELECT 1", catalog, build)
        second, hit2 = cache.lookup("select  1", catalog, build)
        assert (hit1, hit2) == (False, True)
        assert second is first
        assert len(built) == 1

    def test_version_change_misses(self):
        cache = PlanCache(8)
        catalog = self._FakeCatalog(version=1)
        cache.lookup("SELECT 1", catalog, catalog.entry)
        catalog.version = 2
        _, hit = cache.lookup("SELECT 1", catalog, catalog.entry)
        assert hit is False

    def test_uncacheable_not_stored(self):
        cache = PlanCache(8)
        catalog = self._FakeCatalog()
        build = lambda: catalog.entry("EXPLAIN SELECT 1", cacheable=False)
        cache.lookup("EXPLAIN SELECT 1", catalog, build)
        _, hit = cache.lookup("EXPLAIN SELECT 1", catalog, build)
        assert hit is False
        assert len(cache) == 0
