"""The tuple buffer — the paper's central shared data structure (§4.2).

A :class:`TupleBuffer` is a set of hash partitions, each holding a *chunk
list* (list of row batches). Buffers carry two physical properties that the
DAG optimizer reasons about:

- ``partitioned_by`` — the key columns whose hash decides the partition of a
  row (empty tuple = a single unpartitioned partition);
- ``ordered_by`` — the per-partition sort order as ``(column, descending)``
  pairs (empty tuple = unordered).

Following the paper, a partition can be accessed three ways:

1. via its chunk list (append path, used by PARTITION / COMBINE),
2. via a single *compacted* chunk (required before in-place modification),
3. via a *permutation vector* — a sequence of row indices paired with copied
   key columns, which makes key comparisons cheap while avoiding moving wide
   tuples (§4.2).

``SORT`` can therefore run in two modes: ``inplace`` (physically reorder the
compacted chunk) or ``permutation`` (only build the permutation vector). The
optimizer picks the mode from the tuple width; consumers go through
:meth:`BufferPartition.ordered_batch`, which hides the distinction — the
iterator-abstraction trick of Figure 5.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitizer import SAN as _SAN
from ..errors import ExecutionError
from ..types import DataType, Schema
from .batch import Batch
from .column import Column
from . import keys as keys_mod

Ordering = Tuple[Tuple[str, bool], ...]


class BufferPartition:
    """One hash partition: a chunk list plus optional permutation vector.

    A partition may be *spilled* — its (logically ordered) rows serialized
    to disk by a :class:`~repro.storage.spill.SpillManager`; every access
    path loads it back transparently."""

    __slots__ = (
        "schema", "chunks", "permutation", "key_cache",
        "_spill_manager", "_spill_path", "_spilled_rows", "_spill_schema",
    )

    def __init__(self, schema: Schema, chunks: Optional[List[Batch]] = None):
        self.schema = schema
        self.chunks: List[Batch] = chunks if chunks is not None else []
        #: Permutation vector: row indices into the compacted chunk, in sort
        #: order. ``None`` means physical order is the logical order.
        self.permutation: Optional[np.ndarray] = None
        #: Copied key columns of the permutation vector (name -> Column),
        #: aligned with ``permutation``. Mirrors the paper's "tuple address
        #: followed by copied key attributes".
        self.key_cache: dict = {}
        self._spill_manager = None
        self._spill_path: Optional[str] = None
        self._spilled_rows = 0
        self._spill_schema: Optional[Schema] = None

    # ------------------------------------------------------------------
    # Spilling
    # ------------------------------------------------------------------
    @property
    def is_spilled(self) -> bool:
        return self._spill_path is not None

    def spill(self, manager) -> None:
        """Write the partition's rows (in logical order) to disk and drop
        the in-memory chunks."""
        if self.is_spilled or self.num_rows == 0:
            return
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        batch = self.ordered_batch()
        self._spill_manager = manager
        self._spill_path = manager.write_batch(batch)
        self._spilled_rows = len(batch)
        self._spill_schema = batch.schema
        self.chunks = []
        self.permutation = None
        self.key_cache = {}

    def ensure_loaded(self) -> None:
        if not self.is_spilled:
            return
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        batch = self._spill_manager.read_batch(
            self._spill_path, self._spill_schema
        )
        self._spill_manager.release(self._spill_path)
        self._spill_path = None
        self._spilled_rows = 0
        self.chunks = [batch]
        self.permutation = None

    def approx_bytes(self) -> int:
        if self.is_spilled:
            return 0
        from .spill import approx_batch_bytes

        return approx_batch_bytes(*self.chunks)

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if self.is_spilled:
            return self._spilled_rows
        return sum(len(chunk) for chunk in self.chunks)

    @property
    def is_compacted(self) -> bool:
        return len(self.chunks) <= 1

    def append(self, batch: Batch) -> None:
        if len(batch) == 0:
            return
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        self.ensure_loaded()
        if self.permutation is not None:
            raise ExecutionError("cannot append to a partition with a permutation vector")
        self.chunks.append(batch)

    def extend(self, other: "BufferPartition") -> None:
        """Merge another partition's chunk list (cross-thread merge step)."""
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
            _SAN.active.on_access(other, "r")
        other.ensure_loaded()
        for chunk in other.chunks:
            self.append(chunk)

    def compact(self) -> Batch:
        """Merge the chunk list into a single chunk and return it."""
        if _SAN.active is not None:
            # Rewrites the chunk list unless already compacted: two
            # concurrent lazy compactions of one partition are a real race.
            _SAN.active.on_access(
                self, "r" if len(self.chunks) == 1 else "w"
            )
        self.ensure_loaded()
        if not self.chunks:
            empty = Batch.empty(self.schema)
            self.chunks = [empty]
            return empty
        if len(self.chunks) > 1:
            self.chunks = [Batch.concat(self.chunks)]
        return self.chunks[0]

    # ------------------------------------------------------------------
    # Sorting access paths
    # ------------------------------------------------------------------
    def _sort_indices(
        self,
        chunk: Batch,
        key_names: Sequence[str],
        descending: Sequence[bool],
        presorted_prefix: int = 0,
    ) -> np.ndarray:
        """Sort permutation, exploiting an existing physical ordering.

        When the chunk is already ordered by the first ``presorted_prefix``
        keys (a previous SORT of this buffer — the re-sort case of Figure 8
        query 2), only the remaining suffix needs a comparison sort; the
        prefix is restored with a radix pass over dense range codes. This is
        the paper's "significantly faster since the hash partitions are
        already sorted by the key" effect.
        """
        if 0 < presorted_prefix == len(key_names) - 1:
            prefix_cols = [chunk.column(n) for n in key_names[:presorted_prefix]]
            flags = np.zeros(len(chunk), dtype=bool)
            flags[0] = True
            for col in prefix_cols:
                values = keys_mod._normalize_values(col)
                flags[1:] |= values[1:] != values[:-1]
            codes = (np.cumsum(flags) - 1).astype(np.int64)
            suffix = chunk.column(key_names[-1]).sort_key(
                descending=descending[-1]
            )
            order = np.argsort(suffix, kind="stable")
            return order[np.argsort(codes[order], kind="stable")]
        return keys_mod.lexsort_indices(
            [chunk.column(name) for name in key_names], descending
        )

    def sort_inplace(
        self,
        key_names: Sequence[str],
        descending: Sequence[bool],
        presorted_prefix: int = 0,
    ) -> None:
        """Physically reorder the (compacted) chunk by the sort keys."""
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        chunk = self.compact()
        if len(chunk) <= 1:
            self.permutation = None
            return
        order = self._sort_indices(chunk, key_names, descending, presorted_prefix)
        self.chunks = [chunk.take(order)]
        self.permutation = None
        self.key_cache = {}

    def sort_permutation(
        self,
        key_names: Sequence[str],
        descending: Sequence[bool],
        presorted_prefix: int = 0,
    ) -> None:
        """Build a permutation vector (indices + copied keys) without moving
        the tuples themselves."""
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        chunk = self.compact()
        if len(chunk) <= 1:
            self.permutation = np.arange(len(chunk), dtype=np.int64)
            return
        columns = [chunk.column(name) for name in key_names]
        order = self._sort_indices(chunk, key_names, descending, presorted_prefix)
        self.permutation = order
        self.key_cache = {
            name: col.take(order) for name, col in zip(key_names, columns)
        }

    def apply_sort_order(
        self,
        order: np.ndarray,
        key_names: Sequence[str],
        mode: str = "inplace",
    ) -> None:
        """Install an externally computed sort permutation over the
        compacted chunk — the merge step of a parallel split sort. Matches
        what :meth:`sort_inplace` / :meth:`sort_permutation` would have
        produced from the same permutation."""
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        chunk = self.compact()
        if mode == "permutation":
            self.permutation = order
            self.key_cache = {
                name: chunk.column(name).take(order) for name in key_names
            }
        else:
            self.chunks = [chunk.take(order)]
            self.permutation = None
            self.key_cache = {}

    def ordered_batch(self) -> Batch:
        """The partition's rows in logical (sorted, if any) order.

        This is the runtime face of the paper's compile-time iterator
        abstraction: consumers never branch on the storage layout.
        """
        if _SAN.active is not None:
            _SAN.active.on_access(self, "r")
        chunk = self.compact()
        if self.permutation is None:
            return chunk
        return chunk.take(self.permutation)

    def replace(self, batch: Batch) -> None:
        """Replace partition contents with ``batch`` (in logical order)."""
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        self.chunks = [batch]
        self.permutation = None
        self.key_cache = {}

    def __repr__(self) -> str:
        mode = "perm" if self.permutation is not None else (
            "compact" if self.is_compacted else f"{len(self.chunks)} chunks"
        )
        return f"BufferPartition({self.num_rows} rows, {mode})"


class TupleBuffer:
    """A hash-partitioned, property-carrying materialized intermediate."""

    def __init__(
        self,
        schema: Schema,
        num_partitions: int = 1,
        partitioned_by: Tuple[str, ...] = (),
    ):
        if num_partitions < 1:
            raise ExecutionError("buffer needs at least one partition")
        self.schema = schema
        self.partitions: List[BufferPartition] = [
            BufferPartition(schema) for _ in range(num_partitions)
        ]
        self.partitioned_by = tuple(partitioned_by)
        self.ordered_by: Ordering = ()
        #: Spilling configuration (the paper's future-work variant): when a
        #: manager is attached, :meth:`spill_over_budget` keeps the loaded
        #: footprint under ``memory_budget`` bytes.
        self.spill_manager = None
        self.memory_budget: Optional[int] = None

    # ------------------------------------------------------------------
    # Spilling
    # ------------------------------------------------------------------
    @property
    def spilling(self) -> bool:
        return self.spill_manager is not None

    def enable_spilling(self, manager, memory_budget: int) -> None:
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        self.spill_manager = manager
        self.memory_budget = memory_budget

    def approx_bytes(self) -> int:
        """Loaded footprint; a dictionary shared across partitions (every
        slice of a table column) counts once for the whole buffer."""
        from .spill import approx_batch_bytes

        return approx_batch_bytes(
            *(chunk for p in self.partitions if not p.is_spilled for chunk in p.chunks)
        )

    def spill_over_budget(self) -> int:
        """Spill largest-first until the loaded footprint fits the budget;
        returns the number of partitions spilled."""
        if not self.spilling:
            return 0
        spilled = 0
        candidates = sorted(
            (p for p in self.partitions if not p.is_spilled and p.num_rows),
            key=lambda p: p.approx_bytes(),
            reverse=True,
        )
        for partition in candidates:
            if self.approx_bytes() <= (self.memory_budget or 0):
                break
            partition.spill(self.spill_manager)
            spilled += 1
        return spilled

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def num_rows(self) -> int:
        return sum(p.num_rows for p in self.partitions)

    def stats(self) -> dict:
        """Observability snapshot: shape, footprint, and spill state."""
        return {
            "rows": self.num_rows,
            "partitions": self.num_partitions,
            "approx_bytes": self.approx_bytes(),
            "spilled_partitions": sum(
                1 for p in self.partitions if p.is_spilled
            ),
            "partitioned_by": list(self.partitioned_by),
            "ordered_by": [list(key) for key in self.ordered_by],
        }

    # ------------------------------------------------------------------
    # Build paths
    # ------------------------------------------------------------------
    def scatter_batch(self, batch: Batch) -> List[Tuple[int, Batch]]:
        """Pure scatter: split one batch into ``(partition id, sub-batch)``
        pieces by the hash of ``partitioned_by`` *without mutating the
        buffer*. This is the thread-safe half of :meth:`append_partitioned`:
        work items scatter concurrently, and the caller appends the pieces
        after the region barrier in deterministic submission order.
        """
        if len(batch) == 0:
            return []
        if _SAN.active is not None:
            _SAN.active.on_access(self, "r")
        if not self.partitioned_by or self.num_partitions == 1:
            return [(0, batch)]
        key_columns = [batch.column(name) for name in self.partitioned_by]
        ids = keys_mod.partition_ids(key_columns, self.num_partitions)
        # Scatter via one stable argsort over partition ids.
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        bounds = np.searchsorted(sorted_ids, np.arange(self.num_partitions + 1))
        pieces: List[Tuple[int, Batch]] = []
        for pid in range(self.num_partitions):
            lo, hi = bounds[pid], bounds[pid + 1]
            if lo < hi:
                pieces.append((pid, batch.take(order[lo:hi])))
        return pieces

    def append_pieces(self, pieces: Sequence[Tuple[int, Batch]]) -> None:
        """Append scattered pieces to their partitions (serial merge step)."""
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        for pid, piece in pieces:
            self.partitions[pid].append(piece)

    def append_partitioned(self, batch: Batch) -> None:
        """Scatter one batch into the hash partitions by ``partitioned_by``.

        With no partition keys (or a single partition) the batch is appended
        to partition 0 unchanged.
        """
        self.append_pieces(self.scatter_batch(batch))

    @classmethod
    def from_batches(
        cls,
        schema: Schema,
        batches: Sequence[Batch],
        num_partitions: int = 1,
        partitioned_by: Tuple[str, ...] = (),
    ) -> "TupleBuffer":
        buffer = cls(schema, num_partitions, partitioned_by)
        for batch in batches:
            buffer.append_partitioned(batch)
        return buffer

    # ------------------------------------------------------------------
    # Consumption paths
    # ------------------------------------------------------------------
    def partition_batches(self) -> List[Batch]:
        """One logically-ordered batch per partition."""
        return [p.ordered_batch() for p in self.partitions]

    def scan_batches(self) -> List[Batch]:
        """All partitions as a list of batches (partition order)."""
        return [p.ordered_batch() for p in self.partitions if p.num_rows > 0] or [
            Batch.empty(self.schema)
        ]

    def to_batch(self) -> Batch:
        return Batch.concat(self.scan_batches())

    # ------------------------------------------------------------------
    # Property bookkeeping
    # ------------------------------------------------------------------
    def set_ordering(self, ordering: Ordering) -> None:
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        self.ordered_by = tuple(ordering)

    def ordering_satisfies(self, required: Ordering) -> bool:
        """True if the buffer's ordering has ``required`` as a prefix — the
        paper's sort-elision condition."""
        if len(required) > len(self.ordered_by):
            return False
        return tuple(self.ordered_by[: len(required)]) == tuple(required)

    def add_column(self, name: str, dtype: DataType, per_partition: List[Column]) -> None:
        """Append one computed column to every partition (see
        :meth:`add_columns`)."""
        self.add_columns([(name, dtype)], [[col] for col in per_partition])

    def add_columns(
        self,
        fields: List[Tuple[str, DataType]],
        per_partition: List[List[Column]],
    ) -> None:
        """Append computed columns to every partition *in logical order*
        (the WINDOW write-back path). Physically re-materializes partitions
        in their logical order first, matching the compaction the paper
        performs before in-place modification.

        ``per_partition[p]`` holds one column per new field, aligned with
        partition ``p``'s logical row order.
        """
        if len(per_partition) != self.num_partitions:
            raise ExecutionError("per-partition column count mismatch")
        if _SAN.active is not None:
            _SAN.active.on_access(self, "w")
        from ..types import Field

        new_schema = Schema(
            list(self.schema.fields)
            + [Field(name, dtype) for name, dtype in fields]
        )
        for partition, columns in zip(self.partitions, per_partition):
            ordered = partition.ordered_batch()
            if any(len(col) != len(ordered) for col in columns):
                raise ExecutionError("window column length mismatch")
            partition.replace(
                Batch(new_schema, list(ordered.columns) + list(columns))
            )
            partition.schema = new_schema
        self.schema = new_schema

    def clone_layout(self) -> "TupleBuffer":
        """An empty buffer with identical schema/partitioning."""
        return TupleBuffer(self.schema, self.num_partitions, self.partitioned_by)

    def __repr__(self) -> str:
        props = []
        if self.partitioned_by:
            props.append(f"partitioned_by={self.partitioned_by}")
        if self.ordered_by:
            props.append(f"ordered_by={self.ordered_by}")
        inner = ", ".join(props)
        return f"TupleBuffer({self.num_rows} rows, {self.num_partitions} partitions{', ' + inner if inner else ''})"
