"""Unit tests for Batch, Table and Catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.storage import Batch, Catalog, Column
from repro.types import DataType, Schema

SCHEMA = Schema.of(("a", "int64"), ("b", "string"))


def make_batch(n=5):
    return Batch.from_pydict(
        SCHEMA, {"a": list(range(n)), "b": [f"v{i}" for i in range(n)]}
    )


class TestBatch:
    def test_lengths_must_match(self):
        with pytest.raises(ExecutionError):
            Batch(
                SCHEMA,
                [
                    Column.from_values(DataType.INT64, [1, 2]),
                    Column.from_values(DataType.STRING, ["x"]),
                ],
            )

    def test_field_count_must_match(self):
        with pytest.raises(ExecutionError):
            Batch(SCHEMA, [Column.from_values(DataType.INT64, [1])])

    def test_from_pydict_missing_column(self):
        with pytest.raises(ExecutionError):
            Batch.from_pydict(SCHEMA, {"a": [1]})

    def test_rows_roundtrip(self):
        batch = make_batch(3)
        assert list(batch.rows()) == [(0, "v0"), (1, "v1"), (2, "v2")]

    def test_take_filter_slice(self):
        batch = make_batch(4)
        assert list(batch.take(np.array([3, 0])).rows()) == [(3, "v3"), (0, "v0")]
        assert len(batch.filter(np.array([True, False, True, False]))) == 2
        assert list(batch.slice(1, 2).rows()) == [(1, "v1")]

    def test_select(self):
        batch = make_batch(2).select(["b"])
        assert batch.schema.names() == ["b"]

    def test_with_column_append_and_replace(self):
        batch = make_batch(2)
        extra = Column.from_values(DataType.FLOAT64, [0.5, 1.5])
        appended = batch.with_column("c", DataType.FLOAT64, extra)
        assert appended.schema.names() == ["a", "b", "c"]
        replaced = appended.with_column(
            "c", DataType.FLOAT64, Column.from_values(DataType.FLOAT64, [9.0, 9.0])
        )
        assert replaced.column("c").to_pylist() == [9.0, 9.0]

    def test_morsels_cover_all_rows(self):
        batch = make_batch(10)
        pieces = list(batch.morsels(3))
        assert [len(p) for p in pieces] == [3, 3, 3, 1]
        assert Batch.concat(pieces).to_pydict() == batch.to_pydict()

    def test_morsels_empty_batch(self):
        batch = make_batch(0)
        assert [len(p) for p in batch.morsels(4)] == [0]

    def test_concat_requires_input(self):
        with pytest.raises(ExecutionError):
            Batch.concat([])


class TestTableCatalog:
    def test_create_insert_scan(self):
        catalog = Catalog()
        table = catalog.create_table("t", {"x": "int64", "y": "string"})
        table.insert_pydict({"x": [1, 2], "y": ["a", "b"]})
        table.insert_pydict({"x": [3], "y": ["c"]})
        assert table.num_rows == 3
        assert [len(b) for b in table.scan(morsel_size=2)] == [2, 1]
        # A column-selecting scan reads just the named columns, as views.
        narrow = table.scan(morsel_size=2, schema=Schema.of(("y", "string")))
        assert [b.schema.names() for b in narrow] == [["y"], ["y"]]
        assert [v for b in narrow for v in b.column("y").to_pylist()] == ["a", "b", "c"]
        assert narrow[0].column("y").dictionary is table.column("y").dictionary

    def test_insert_validates_columns(self):
        catalog = Catalog()
        table = catalog.create_table("t", {"x": "int64"})
        with pytest.raises(CatalogError):
            table.insert_pydict({"x": [1], "zz": [2]})
        with pytest.raises(CatalogError):
            table.insert_pydict({})

    def test_insert_arrays_fast_path(self):
        catalog = Catalog()
        table = catalog.create_table("t", {"x": "int64", "s": "string"})
        table.insert_arrays(
            {"x": np.arange(4), "s": np.array(["a", "b", "c", "d"], dtype=object)}
        )
        assert table.num_rows == 4
        assert table.column("s").to_pylist() == ["a", "b", "c", "d"]

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", {"x": "int64"})
        with pytest.raises(CatalogError):
            catalog.create_table("T", {"x": "int64"})

    def test_drop_and_unknown(self):
        catalog = Catalog()
        catalog.create_table("t", {"x": "int64"})
        catalog.drop_table("t")
        assert not catalog.has("t")
        with pytest.raises(CatalogError):
            catalog.get("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_truncate(self):
        catalog = Catalog()
        table = catalog.create_table("t", {"x": "int64"})
        table.insert_pydict({"x": [1, 2]})
        table.truncate()
        assert table.num_rows == 0
