"""Tests for the relational pipeline executor (scan/filter/project fusion,
joins, union) used underneath every statistics region."""

import pytest

from repro.execution import EngineConfig, ExecutionContext
from repro.logical import Filter, Join, JoinKind, Project, Scan, UnionAll
from repro.expr.nodes import BinaryOp, ColumnRef, Literal
from repro.relational import RelationalExecutor
from repro.storage import Batch, Catalog
from repro.types import DataType


@pytest.fixture
def setup():
    catalog = Catalog()
    t = catalog.create_table("t", {"a": "int64", "b": "int64"})
    t.insert_pydict({"a": list(range(10)), "b": [i * 10 for i in range(10)]})
    u = catalog.create_table("u", {"a": "int64", "c": "string"})
    u.insert_pydict({"a": [2, 4, 4, 99], "c": ["x", "y", "z", "w"]})
    context = ExecutionContext(EngineConfig(num_threads=2, morsel_size=4))
    return catalog, context


def rows_of(batches):
    return sorted(Batch.concat(batches).rows())


class TestMapChains:
    def test_scan_produces_morsels(self, setup):
        catalog, context = setup
        executor = RelationalExecutor(catalog, context)
        batches = executor.execute(Scan("t", catalog.get("t").schema))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_filter_project_fused(self, setup):
        catalog, context = setup
        scan = Scan("t", catalog.get("t").schema)
        gt = Filter(scan, BinaryOp(">", ColumnRef("a"), Literal(5, DataType.INT64)))
        plan = Project(gt, [("a2", ColumnRef("a") + ColumnRef("a"))])
        executor = RelationalExecutor(catalog, context)
        assert rows_of(executor.execute(plan)) == [(12,), (14,), (16,), (18,)]
        # One fused region, not one per operator.
        operators = {r.name for r in (context.trace.records if context.trace else [])}
        # no trace configured; just ensure results correct

    def test_empty_filter_result(self, setup):
        catalog, context = setup
        scan = Scan("t", catalog.get("t").schema)
        plan = Filter(scan, BinaryOp(">", ColumnRef("a"), Literal(100, DataType.INT64)))
        executor = RelationalExecutor(catalog, context)
        batches = executor.execute(plan)
        assert sum(len(b) for b in batches) == 0
        assert batches[0].schema.names() == ["a", "b"]


class TestJoins:
    def test_inner_join(self, setup):
        catalog, context = setup
        plan = Join(
            Scan("t", catalog.get("t").schema),
            Scan("u", catalog.get("u").schema),
            JoinKind.INNER,
            ["a"], ["a"],
        )
        executor = RelationalExecutor(catalog, context)
        got = rows_of(executor.execute(plan))
        assert got == [(2, 20, 2, "x"), (4, 40, 4, "y"), (4, 40, 4, "z")]

    def test_semi_and_anti(self, setup):
        catalog, context = setup
        executor = RelationalExecutor(catalog, context)
        semi = Join(
            Scan("t", catalog.get("t").schema),
            Scan("u", catalog.get("u").schema),
            JoinKind.SEMI, ["a"], ["a"],
        )
        assert [r[0] for r in rows_of(executor.execute(semi))] == [2, 4]
        anti = Join(
            Scan("t", catalog.get("t").schema),
            Scan("u", catalog.get("u").schema),
            JoinKind.ANTI, ["a"], ["a"],
        )
        assert len(rows_of(executor.execute(anti))) == 8

    def test_left_join_pads(self, setup):
        catalog, context = setup
        executor = RelationalExecutor(catalog, context)
        left = Join(
            Scan("t", catalog.get("t").schema),
            Scan("u", catalog.get("u").schema),
            JoinKind.LEFT, ["a"], ["a"],
        )
        got = rows_of(executor.execute(left))
        assert len(got) == 11  # 10 left rows, one double match
        assert (0, 0, None, None) in got


    def test_key_preserving_join_copies_nothing_on_the_probe_side(self, setup):
        """Every ``t`` row matches exactly one ``d`` row: INNER and LEFT hand
        the probe morsels' columns on as they came, slices of the table."""
        import numpy as np

        catalog, _ = setup
        d = catalog.create_table("d", {"a": "int64", "name": "string"})
        d.insert_pydict({"a": list(range(12)), "name": [f"n{i}" for i in range(12)]})
        config = EngineConfig(num_threads=2, morsel_size=4, execution_mode="parallel")
        executor = RelationalExecutor(catalog, ExecutionContext(config))
        stored = catalog.get("t").to_batch()
        for kind in (JoinKind.INNER, JoinKind.LEFT):
            plan = Join(
                Scan("t", catalog.get("t").schema), Scan("d", d.schema), kind, ["a"], ["a"]
            )
            batches = executor.execute(plan)
            assert [len(b) for b in batches] == [4, 4, 2]
            for batch in batches:
                for position in (0, 1):
                    assert np.shares_memory(
                        batch.columns[position].data, stored.columns[position].data
                    )
            assert rows_of(batches) == [(i, i * 10, i, f"n{i}") for i in range(10)]


class TestUnionAll:
    def test_concatenates(self, setup):
        catalog, context = setup
        scan = Scan("t", catalog.get("t").schema)
        plan = UnionAll([scan, scan])
        executor = RelationalExecutor(catalog, context)
        assert sum(len(b) for b in executor.execute(plan)) == 20

    def test_stats_node_without_handler_raises(self, setup):
        from repro.errors import ExecutionError
        from repro.logical import Sort

        catalog, context = setup
        plan = Sort(Scan("t", catalog.get("t").schema), [("a", False)])
        executor = RelationalExecutor(catalog, context)
        with pytest.raises(ExecutionError):
            executor.execute(plan)
