"""SCAN — stream a materialized buffer to consumers (Table 1).

Scans partitions in order (honoring permutation vectors through the
buffer's ordered access path) and optionally applies a projection while
streaming — the runtime analogue of the paper inlining expression evaluation
into generated scan loops. A LIMIT/OFFSET is applied to the scanned
batches: every partition is scanned, and the rows before the offset and
past the limit are trimmed afterwards.

Over a buffer SCAN is a chain step (:func:`repro.lolepop.base.run_chain`):
each work item projects the one partition it holds, usually the last step
after the SORT and WINDOW that ran on it in the same item. Over a stream it
is a region of its own, one item per batch.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..execution.context import ExecutionContext
from ..expr.eval import evaluate, infer_dtype
from ..expr.nodes import ColumnRef, Expr
from ..storage.batch import Batch
from ..storage.buffer import TupleBuffer
from ..types import Field, Schema
from .base import BufferView, ChainStep, Lolepop, OpResult, run_chain
from .properties import PhysProps, _missing_columns, expr_column_refs


class ScanOp(Lolepop):
    legend = "SCAN"
    consumes = ("buffer", "stream")
    produces = "stream"
    chain_min_rows = 1  # over a buffer

    def __init__(
        self,
        input_op: Lolepop,
        project: Optional[Sequence[Tuple[str, Expr]]] = None,
        project_schema: Optional[Schema] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ):
        super().__init__([input_op])
        self.project = list(project) if project is not None else None
        self.project_schema = project_schema
        self.limit = limit
        self.offset = offset

    def describe(self) -> str:
        parts = []
        if self.project is not None:
            parts.append(f"project {len(self.project)} exprs")
        if self.limit is not None or self.offset:
            parts.append(f"limit {self.limit} offset {self.offset}")
        return ", ".join(parts)

    def requires(self, ins: Sequence[Optional[PhysProps]]) -> List[str]:
        if self.project is None:
            return []
        refs: set = set()
        for _, expr in self.project:
            refs |= expr_column_refs(expr)
        return _missing_columns(
            ins[0] if ins else None, sorted(refs), "SCAN projection"
        )

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        source = ins[0] if ins else None
        if self.project is None:
            schema = source.schema if source is not None else None
            passthrough: Optional[FrozenSet[str]] = None  # everything survives
        else:
            schema = self.project_schema
            if schema is None and source is not None and source.schema is not None:
                try:
                    schema = Schema(
                        Field(name, infer_dtype(expr, source.schema))
                        for name, expr in self.project
                    )
                except Exception:
                    schema = None
            passthrough = frozenset(
                name.lower()
                for name, expr in self.project
                if isinstance(expr, ColumnRef) and expr.name.lower() == name.lower()
            )
        unique_on = source.unique_on if source is not None else None
        if unique_on is not None and passthrough is not None:
            unique_on = frozenset(s for s in unique_on if s <= passthrough)
        return PhysProps("stream", schema=schema, unique_on=unique_on)

    def order_sensitive(self) -> bool:
        return self.limit is not None or bool(self.offset)

    def reads_full_schema(self) -> bool:
        return self.project is None

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        source = inputs[0]
        if isinstance(source, TupleBuffer):
            return run_chain(ctx, [self], source, keep=True)[0][0]
        return self._finish(ctx.parallel_for("scan", source, self._scan_one))

    def chain_step(self, ctx: ExecutionContext, view: BufferView) -> ChainStep:
        schema = view.schema

        def scan(partition) -> Batch:
            return self._scan_one(partition.ordered_batch())

        def finish(buffer: TupleBuffer, results: List[Optional[Batch]]) -> List[Batch]:
            outputs = [b for b in results if b is not None]
            return self._finish(outputs or [self._scan_one(Batch.empty(schema))])

        return scan, finish

    def _scan_one(self, batch: Batch) -> Batch:
        if self.project is not None:
            columns = [evaluate(expr, batch) for _, expr in self.project]
            batch = Batch(self.project_schema, columns)
        return batch

    def _finish(self, outputs: List[Batch]) -> List[Batch]:
        outputs = [b for b in outputs if len(b)] or [outputs[0]]
        if self.offset or self.limit is not None:
            outputs = _apply_limit(outputs, self.limit, self.offset)
        if self.span is not None and self.project is not None:
            self.note(projected_exprs=len(self.project))
        return outputs


def _apply_limit(
    batches: List[Batch], limit: Optional[int], offset: int
) -> List[Batch]:
    out: List[Batch] = []
    skip = offset
    remaining = limit
    for batch in batches:
        if skip >= len(batch):
            skip -= len(batch)
            continue
        piece = batch.slice(skip, len(batch))
        skip = 0
        if remaining is not None:
            if remaining <= 0:
                break
            piece = piece.slice(0, min(remaining, len(piece)))
            remaining -= len(piece)
        out.append(piece)
        if remaining == 0:
            break
    return out or [batches[0].slice(0, 0)]
