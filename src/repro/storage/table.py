"""Base relations and the catalog.

A :class:`Table` is a named column store: one :class:`Column` per field,
append-only. :class:`Catalog` maps names to tables and is owned by the
top-level :class:`~repro.api.Database`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import CatalogError
from ..types import DataType, Field, Schema, date_to_days
from .batch import Batch
from .column import Column


class Table:
    """A named, schema-ful, append-only column store."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        #: Rows written: appended plus truncated away, bumped under the lock.
        #: Equal versions name one data snapshot (the result cache and
        #: ``reuse`` key on it); the difference of two is the churn between
        #: them (:func:`repro.stats.is_stale` reads it).
        self.version = 0
        self._columns: List[Column] = [
            Column(f.dtype, np.empty(0, dtype=f.dtype.numpy_dtype)) for f in schema
        ]
        #: Serializes mutations. A catalog-owned table shares the catalog's
        #: RLock so one lock orders all DDL/DML across concurrent sessions;
        #: a free-standing table gets its own.
        self._lock = threading.RLock()
        #: Additional mutation observers, called (under the lock, after the
        #: version bump) as ``observer(kind, batch)`` where ``kind`` is
        #: ``"insert"`` (``batch`` is the appended delta) or ``"truncate"``
        #: (``batch`` is ``None``). The materialization manager registers
        #: here to drive incremental view maintenance.
        self._observers: List[Any] = []

    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Register a mutation observer (see :attr:`_observers`)."""
        with self._lock:
            if observer not in self._observers:
                self._observers.append(observer)

    def _notify(self, kind: str, batch: Optional[Batch]) -> None:
        for observer in list(self._observers):
            observer(kind, batch)

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def column(self, name: str) -> Column:
        return self._columns[self.schema.index_of(name)]

    def columns(self) -> List[Column]:
        return list(self._columns)

    # ------------------------------------------------------------------
    def insert_pydict(self, data: Dict[str, Iterable[Any]]) -> int:
        """Append rows given as ``{column: list-of-values}``. Returns the
        number of rows appended."""
        unknown = [k for k in data if not self.schema.has(k)]
        if unknown:
            raise CatalogError(f"unknown columns in insert: {unknown}")
        missing = [f.name for f in self.schema if f.name not in data]
        if missing:
            raise CatalogError(f"missing columns in insert: {missing}")
        batch = Batch.from_pydict(self.schema, data)
        self.insert_batch(batch)
        return len(batch)

    def insert_arrays(self, data: Dict[str, np.ndarray]) -> int:
        """Append rows given as numpy arrays (no nulls). This is the fast
        path used by the TPC-H generator."""
        columns = []
        for field, current in zip(self.schema, self._columns):
            if field.name not in data:
                raise CatalogError(f"missing column in insert: {field.name!r}")
            raw = np.asarray(data[field.name])
            if field.dtype is DataType.STRING:
                # Encode straight against the table's dictionary: one lookup
                # per appended row, and the concat below is a codes memcpy.
                codes, dictionary = current.dictionary.encode_more(raw.astype(object))
                columns.append(Column(field.dtype, codes, None, dictionary))
                continue
            if field.dtype is DataType.DATE and raw.dtype.kind == "M":
                # numpy datetime64 arrays: day numbers since the epoch.
                values = raw.astype("datetime64[D]").astype(np.int32)
            elif field.dtype is DataType.DATE and raw.dtype.kind not in "iu":
                values = np.array([date_to_days(v) for v in raw], dtype=np.int32)
            else:
                values = raw.astype(field.dtype.numpy_dtype)
            columns.append(Column(field.dtype, values))
        batch = Batch(self.schema, columns)
        self.insert_batch(batch)
        return len(batch)

    def insert_batch(self, batch: Batch) -> None:
        if batch.schema.types() != self.schema.types():
            raise CatalogError(
                f"schema mismatch inserting into {self.name!r}: "
                f"{batch.schema!r} vs {self.schema!r}"
            )
        with self._lock:
            if self.num_rows == 0:
                self._columns = [col.copy() for col in batch.columns]
            else:
                self._columns = [
                    Column.concat([mine, theirs])
                    for mine, theirs in zip(self._columns, batch.columns)
                ]
            self.version += len(batch)
            self._notify("insert", batch)

    def truncate(self) -> None:
        with self._lock:
            rows = self.num_rows
            self._columns = [
                Column(f.dtype, np.empty(0, dtype=f.dtype.numpy_dtype))
                for f in self.schema
            ]
            self.version += rows
            self._notify("truncate", None)

    # ------------------------------------------------------------------
    def to_batch(self) -> Batch:
        # Mutations replace ``_columns`` wholesale (never in place), so a
        # reader snapshots either the old or the new column list — scans
        # need no lock.
        return Batch(self.schema, list(self._columns))

    def scan(
        self, morsel_size: Optional[int] = None, schema: Optional[Schema] = None
    ) -> List[Batch]:
        """The table as a list of batches (morsels) — of the columns in
        ``schema`` (a subset of the table's, by name) when given."""
        batch = self.to_batch()
        if schema is not None and schema is not self.schema:
            batch = Batch(schema, [batch.column(f.name) for f in schema])
        if morsel_size is None or len(batch) <= morsel_size:
            return [batch]
        return list(batch.morsels(morsel_size))

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.num_rows} rows)"


class Catalog:
    """Name → table mapping with case-insensitive lookup.

    DDL (``create_table``/``drop_table``) and DML (inserts into catalog-owned
    tables) are serialized by one reentrant lock. DDL advances
    :attr:`ddl_version` and DML the written table's :attr:`Table.version`
    by the rows it wrote. The result cache validates an entry on equal
    versions, the plan cache on :func:`repro.stats.is_stale`, so a change
    to one table leaves entries over other tables valid.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._lock = threading.RLock()
        #: Bumped only by DDL (create/drop table) — never by DML. Cache
        #: entries pair it with the per-table versions they read.
        self.ddl_version = 0

    @property
    def lock(self) -> threading.RLock:
        """The catalog-wide DDL/DML lock (shared with owned tables)."""
        return self._lock

    def create_table(
        self, name: str, schema: Union[Schema, Sequence, Dict[str, Any]]
    ) -> Table:
        key = name.lower()
        if isinstance(schema, dict):
            schema = Schema(Field(col, dtype) for col, dtype in schema.items())
        elif not isinstance(schema, Schema):
            schema = Schema(Field(col, dtype) for col, dtype in schema)
        with self._lock:
            if key in self._tables:
                raise CatalogError(f"table already exists: {name!r}")
            table = Table(name, schema)
            table._lock = self._lock
            self._tables[key] = table
            self.ddl_version += 1
            return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"unknown table: {name!r}")
            self._tables.pop(key)
            self.ddl_version += 1

    def has(self, name: str) -> bool:
        return name.lower() in self._tables

    def get(self, name: str) -> Table:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table: {name!r}")
        return self._tables[key]

    def names(self) -> List[str]:
        return [table.name for table in self._tables.values()]
