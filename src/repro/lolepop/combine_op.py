"""COMBINE — join *unique* groups from multiple producers (Table 1, §4.5).

Two modes:

- ``join``: every input produces at most one row per group key (the paper's
  precondition); the output is the key-union with each input's aggregate
  columns placed at its groups and NULL elsewhere. This pairs DISTINCT with
  non-DISTINCT aggregates, and ordered-set with hash-based units.
- ``union``: grouping-set mode — inputs carry *different* key subsets; rows
  are concatenated with the missing keys NULL-extended and an INT64
  ``grouping_id`` per input (SQL GROUPING() bitmask).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..execution.context import ExecutionContext
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..storage.column import Column
from ..storage.keys import group_codes
from ..types import DataType, Field, Schema
from .base import Lolepop, OpResult
from .properties import PhysProps, _missing_columns


def _as_batch(value: OpResult, schema_hint: Optional[Schema] = None) -> Batch:
    if isinstance(value, TupleBuffer):
        return value.to_batch()
    if not value:
        if schema_hint is None:
            raise ExecutionError("empty COMBINE input without schema")
        return Batch.empty(schema_hint)
    return Batch.concat(value)


class CombineOp(Lolepop):
    legend = "COMBINE"
    consumes = ("stream", "buffer")
    produces = "buffer"
    max_inputs = None
    buffer_role = "creates"

    def __init__(
        self,
        inputs: Sequence[Lolepop],
        key_names: Sequence[str],
        mode: str = "join",
        union_keys: Optional[Sequence[Tuple[str, ...]]] = None,
        grouping_ids: Optional[Sequence[int]] = None,
        union_key_schema: Optional[Schema] = None,
    ):
        super().__init__(inputs)
        self.key_names = list(key_names)
        self.mode = mode
        #: union mode: the key subset of each input, the grouping id of each
        #: input, and the schema of the union key columns.
        self.union_keys = [tuple(k) for k in union_keys] if union_keys else None
        self.grouping_ids = list(grouping_ids) if grouping_ids else None
        self.union_key_schema = union_key_schema

    def describe(self) -> str:
        keys = ",".join(self.key_names)
        return f"{self.mode} on ({keys})"

    # ------------------------------------------------------------------
    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        problems: List[str] = []
        if self.mode == "join":
            keys = [name.lower() for name in self.key_names]
            for index, source in enumerate(ins):
                problems += _missing_columns(
                    source, keys, f"COMBINE input {index}"
                )
                if source is None or source.unique_implies(keys) is not False:
                    continue
                known = " | ".join(
                    "(" + ",".join(sorted(s)) + ")"
                    for s in sorted(source.unique_on or (), key=sorted)
                ) or "nothing"
                problems.append(
                    f"COMBINE(join) input {index} is not unique on "
                    f"({','.join(keys) or 'ALL'}); known unique keys: {known}"
                )
        elif self.union_keys is not None:
            for index, (grouping_set, source) in enumerate(
                zip(self.union_keys, ins)
            ):
                keys = [name.lower() for name in grouping_set]
                problems += _missing_columns(
                    source, keys, f"COMBINE input {index}"
                )
                if source is not None and source.unique_implies(keys) is False:
                    problems.append(
                        f"COMBINE(union) input {index} is not unique on its "
                        f"grouping set ({','.join(keys) or 'ALL'})"
                    )
        return problems

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        schema = None
        unique: Optional[List[List[str]]] = None
        if self.mode == "join":
            unique = [list(self.key_names)]
            schemas = [
                p.schema for p in ins if p is not None and p.schema is not None
            ]
            if schemas and len(schemas) == len(ins):
                try:
                    keys = list(self.key_names)
                    fields = [schemas[0][name] for name in keys]
                    taken = {name.lower() for name in keys}
                    for source_schema in schemas:
                        for field in source_schema:
                            if field.name.lower() not in taken:
                                taken.add(field.name.lower())
                                fields.append(field)
                    schema = Schema(fields)
                except Exception:
                    schema = None
        return PhysProps(
            "buffer", schema=schema, partitioned_by=(), unique_on=unique
        )

    def reads_full_schema(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        if self.span is not None:
            self.note(producers=len(inputs))
        if self.mode == "join":
            return self._execute_join(ctx, inputs)
        return self._execute_union(ctx, inputs)

    # ------------------------------------------------------------------
    def _execute_join(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        batches = [_as_batch(value) for value in inputs]
        # Concatenate the key columns of all inputs; dense-encode the union.
        key_columns = [
            Column.concat([batch.column(name) for batch in batches])
            for name in self.key_names
        ]
        if self.key_names:
            codes, representatives, num_groups = group_codes(key_columns)
        else:
            total = sum(len(b) for b in batches)
            codes = np.zeros(total, dtype=np.int64)
            representatives = np.zeros(1, dtype=np.int64)
            num_groups = 1 if total else 0
        offsets = np.cumsum([0] + [len(b) for b in batches])

        fields: List[Field] = []
        columns: List[Column] = []
        for name in self.key_names:
            source = key_columns[self.key_names.index(name)]
            fields.append(Field(name, source.dtype))
            columns.append(source.take(representatives[:num_groups]))

        def place(index_and_batch) -> List[Column]:
            index, batch = index_and_batch
            local_codes = codes[offsets[index] : offsets[index + 1]]
            out: List[Column] = []
            for field, column in zip(batch.schema, batch.columns):
                if field.name in self.key_names:
                    continue
                out.append(column.scatter(local_codes, num_groups))
            return out

        placed = ctx.parallel_for("combine", list(enumerate(batches)), place)
        for batch, cols in zip(batches, placed):
            position = 0
            for field in batch.schema:
                if field.name in self.key_names:
                    continue
                fields.append(Field(field.name, cols[position].dtype))
                columns.append(cols[position])
                position += 1
        schema = Schema(fields)
        result = TupleBuffer(schema, 1)
        result.partitions[0].append(Batch(schema, columns))
        return result

    # ------------------------------------------------------------------
    def _execute_union(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        if self.union_keys is None or self.grouping_ids is None:
            raise ExecutionError("union mode requires union_keys/grouping_ids")
        key_schema = self.union_key_schema

        def extend(index_and_value) -> Batch:
            index, value = index_and_value
            batch = _as_batch(value)
            n = len(batch)
            columns: List[Column] = []
            fields: List[Field] = []
            present = set(self.union_keys[index])
            for field in key_schema:
                fields.append(field)
                if field.name in present:
                    columns.append(batch.column(field.name))
                else:
                    columns.append(Column.nulls(field.dtype, n))
            for field, column in zip(batch.schema, batch.columns):
                if field.name in key_schema.names():
                    continue
                fields.append(field)
                columns.append(column)
            fields.append(Field("grouping_id", DataType.INT64))
            columns.append(
                Column(
                    DataType.INT64,
                    np.full(n, self.grouping_ids[index], dtype=np.int64),
                )
            )
            return Batch(Schema(fields), columns)

        extended = ctx.parallel_for(
            "combine", list(enumerate(inputs)), extend
        )
        schema = extended[0].schema
        result = TupleBuffer(schema, 1)
        for batch in extended:
            result.partitions[0].append(Batch(schema, batch.columns))
        return result
