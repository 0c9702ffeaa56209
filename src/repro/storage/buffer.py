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
2. via a single *compacted* chunk (required before in-place modification;
   the first work item that reads a partition compacts it),
3. via a *permutation vector* — a sequence of row indices paired with copied
   key columns, which makes key comparisons cheap while avoiding moving wide
   tuples (§4.2).

``SORT`` can therefore run in two modes: ``inplace`` (physically reorder the
compacted chunk) or ``permutation`` (only build the permutation vector).
``SortOp._resolve_mode`` picks the mode at run time from the tuple width,
and a spilled partition that a later reader needs always permutes, since
its tuples are written once. Consumers go through
:meth:`BufferPartition.ordered_batch`, which hides the distinction — the
iterator-abstraction trick of Figure 5. It also hides where the partition
lives: under a memory budget a partition may be *spilled*
(:mod:`repro.storage.spill`), and the same access paths then read its file.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..types import Schema
from .batch import Batch
from .column import Column
from .spill import approx_batch_bytes, flat_batch_bytes
from . import keys as keys_mod

Ordering = Tuple[Tuple[str, bool], ...]


def ordering_satisfies(ordering: Ordering, required: Ordering) -> bool:
    """True if ``ordering`` has ``required`` as a prefix — the paper's
    sort-elision condition."""
    return tuple(ordering[: len(required)]) == tuple(required)


def scatter_rows(
    batch: Batch, key_names: Sequence[str], count: int
) -> List[Tuple[int, Batch]]:
    """``(partition id, sub-batch)`` per non-empty partition of ``batch``
    split ``count`` ways by the hash of ``key_names``; rows keep their order
    within a partition. :meth:`TupleBuffer.scatter_run` scatters here."""
    ids = keys_mod.partition_ids([batch.column(name) for name in key_names], count)
    order, bounds = keys_mod.bucket_order(ids, count)
    return [
        (pid, batch.take(order[bounds[pid] : bounds[pid + 1]]))
        for pid in range(count)
        if bounds[pid] < bounds[pid + 1]
    ]


class BufferPartition:
    """One hash partition: a chunk list plus optional permutation vector.

    The *physical* row order is the chunk list's; the *logical* order is the
    physical one read through the permutation vector, when there is one.
    A partition may be *spilled*: chunk list and permutation then live in a
    :class:`~repro.storage.spill.SpillFile` and every access path reads them
    from there — transiently, the partition stays spilled, and nothing that
    is only read is ever written again.

    A chain work item pins its partition (:meth:`pin`) for its whole
    length: a spilled one is read from its file once, a loaded one
    compacted once, and every step of the item then works on those arrays.
    :meth:`unpin` ends the item: a spilled partition has appended to its
    file only what a reader after the chain needs, and a loaded one that
    outgrew its share of the buffer's budget goes to disk (or, with no
    reader left, is released)."""

    __slots__ = (
        "schema", "chunks", "permutation", "key_cache", "_spill", "_share", "_pin",
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
        #: The partition's file while it is spilled.
        self._spill = None
        #: ``(spill manager, bytes)`` while the partition is loaded inside a
        #: budgeted buffer: its share of the buffer's memory budget (see
        #: :meth:`TupleBuffer.spill_over_budget`).
        self._share = None
        #: The :class:`_Pin` of the chain item holding the partition.
        self._pin = None

    # ------------------------------------------------------------------
    # Spilling
    # ------------------------------------------------------------------
    @property
    def is_spilled(self) -> bool:
        return self._spill is not None

    def spill(self, manager) -> None:
        """Move the partition to disk: the chunk list is written column by
        column straight from the chunks (the file is the compacted
        partition), then the permutation vector if there is one."""
        self._spill_state(manager, self)

    def _spill_state(self, manager, state) -> None:
        """:meth:`spill` writing ``state``'s chunks and vector (the
        partition's own, or a :class:`_Pin`'s)."""
        if self.is_spilled or self.num_rows == 0:
            return
        file = manager.spill_chunks(state.chunks)
        if state.permutation is not None:
            file.append_permutation(state.permutation)
        self._spill = file
        self.chunks = []
        self.permutation = None
        self.key_cache = {}

    def approx_bytes(self) -> int:
        """Loaded footprint (0 while spilled; what a chain item holding the
        partition works on counts once the item ends)."""
        return approx_batch_bytes(*self.chunks)

    # ------------------------------------------------------------------
    # Chain items
    # ------------------------------------------------------------------
    def pin(self, keep: bool) -> None:
        """Hold the partition for one chain work item: until :meth:`unpin`
        every access path works on a :class:`_Pin`, which holds what a
        spilled partition read from its file, once, or the compacted chunk
        of a loaded one with a share of a budget. ``keep``: a reader after
        the chain reads the partition, so what the item changes must
        outlive it."""
        if not self.is_spilled and self._share is None:
            # Loaded and outside any budget: it keeps whatever the item
            # does, so the item works on the partition itself.
            self.compact()
            return
        pin = _Pin(keep)
        if self.is_spilled:
            pin.chunks = [self._spill.read_batch(self.schema)]
            pin.permutation = self._spill.read_permutation()
        else:
            pin.chunks = [self.compact()]
            pin.permutation, pin.key_cache = self.permutation, self.key_cache
        self._pin = pin

    def unpin(self) -> None:
        """End the chain item holding the partition. A spilled one drops
        what it read; with no reader left it is released, its file lacking
        what the item appended. A loaded one takes the item's state, unless
        that outgrew its share of the budget: then it spills, or with no
        reader left is released."""
        pin, self._pin = self._pin, None
        if pin is None:
            return
        if not self.is_spilled and (
            self._share is None or approx_batch_bytes(*pin.chunks) <= self._share[1]
        ):
            self.chunks, self.permutation, self.key_cache = (
                pin.chunks, pin.permutation, pin.key_cache,
            )
        elif not pin.keep:
            self._release()
        elif not self.is_spilled:
            self._spill_state(self._share[0], pin)

    def _release(self) -> None:
        """Drop the rows (and the file) of a partition no reader needs any
        more; it keeps its row count, and any read of it raises."""
        rows = self.num_rows
        if self._spill is not None:
            self._spill.manager.release(self._spill)
        self._spill = _Released(rows)
        self.chunks = []
        self.permutation = None
        self.key_cache = {}

    @property
    def writes_through(self) -> bool:
        """Is what changes this partition appended to its spill file? Yes
        for a spilled one, unless the chain item holding it leaves no
        reader behind. Such a partition sorts through a permutation vector,
        so its tuples are written once."""
        return self.is_spilled and (self._pin is None or self._pin.keep)

    @property
    def _state(self):
        """Where the chunks, permutation and copied keys live: the pin
        while a chain item holds the partition, the partition otherwise."""
        return self._pin if self._pin is not None else self

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if self.is_spilled:
            return self._spill.rows
        return sum(len(chunk) for chunk in self.chunks)

    def append(self, batch: Batch) -> None:
        if len(batch) == 0:
            return
        if self.is_spilled:
            raise ExecutionError("cannot append rows to a spilled partition")
        if self.permutation is not None:
            raise ExecutionError("cannot append to a partition with a permutation vector")
        self.chunks.append(batch)

    def compact(self) -> Batch:
        """The partition's rows in physical order as a single chunk: merges
        the chunk list in place, or reads a spilled partition's file (not
        while a chain item holds it: :meth:`pin` read it)."""
        if self.is_spilled and self._pin is None:
            return self._spill.read_batch(self.schema)
        state = self._state
        if not state.chunks:
            empty = Batch.empty(self.schema)
            state.chunks = [empty]
            return empty
        if len(state.chunks) > 1:
            state.chunks = [Batch.concat(state.chunks)]
        return state.chunks[0]

    def _permutation(self) -> Optional[np.ndarray]:
        if self.is_spilled and self._pin is None:
            return self._spill.read_permutation()
        return self._state.permutation

    # ------------------------------------------------------------------
    # Sorting access paths
    # ------------------------------------------------------------------
    def logical_columns(self, names: Sequence[str]) -> List[Column]:
        """The named columns in logical row order — the copied keys of the
        permutation vector where it has them, gathered otherwise."""
        columns = [self._state.key_cache.get(name) for name in names]
        if any(column is None for column in columns):
            chunk = self.compact()
            permutation = self._permutation()
            for index, name in enumerate(names):
                if columns[index] is None:
                    column = chunk.column(name)
                    if permutation is not None:
                        column = column.take(permutation)
                    columns[index] = column
        return columns

    def sort_inplace(self, key_names: Sequence[str], descending: Sequence[bool]) -> None:
        """Physically reorder the (compacted) chunk by the sort keys."""
        self._sort(key_names, descending, "inplace")

    def sort_permutation(self, key_names: Sequence[str], descending: Sequence[bool]) -> None:
        """Build a permutation vector (indices + copied keys) without moving
        the tuples themselves. A spilled partition appends the vector to its
        file (see :attr:`writes_through`); its tuples are never written
        twice."""
        self._sort(key_names, descending, "permutation")

    def _sort(self, key_names: Sequence[str], descending: Sequence[bool], mode: str) -> None:
        rows = self.num_rows
        if rows <= 1:
            if mode == "permutation" and not self.is_spilled:
                self.compact()
                self._state.permutation = np.arange(rows, dtype=np.int64)
            return
        keys = self.logical_columns(key_names)
        order = keys_mod.lexsort_indices(keys, descending)
        self.apply_sort_order(order, key_names, mode, keys)

    def apply_sort_order(
        self,
        order: np.ndarray,
        key_names: Sequence[str],
        mode: str = "inplace",
        keys: Optional[Sequence[Column]] = None,
    ) -> None:
        """Make ``order`` — a permutation of the current *logical* order,
        e.g. a stable sort of :meth:`logical_columns` — the new logical
        order. Composed with an existing permutation vector
        (``perm[order]``), so a re-sort is stable over the previous sort
        whichever mode either ran in. ``keys`` are the sort key columns in
        the current logical order, if the caller has them."""
        previous = self._permutation()
        composed = order if previous is None else previous[order]
        if self.writes_through:
            if mode != "permutation":
                raise ExecutionError(
                    "a spilled partition is sorted through its permutation vector"
                )
            self._spill.append_permutation(composed)
            if self._pin is None:
                return
        if mode == "permutation":
            if keys is None:
                keys = self.logical_columns(key_names)
            self.compact()
            self._state.permutation = composed
            self._state.key_cache = {
                name: col.take(order) for name, col in zip(key_names, keys)
            }
        else:
            self._state.chunks = [self.compact().take(composed)]
            self._state.permutation = None
            self._state.key_cache = {}

    def ordered_batch(self) -> Batch:
        """The partition's rows in logical (sorted, if any) order.

        This is the runtime face of the paper's compile-time iterator
        abstraction: consumers never branch on the storage layout.
        """
        chunk = self.compact()
        permutation = self._permutation()
        if permutation is None:
            return chunk
        return chunk.take(permutation)

    def append_columns(self, schema: Schema, columns: Sequence[Column]) -> None:
        """Append computed columns, given in *logical* row order — the
        WINDOW write-back, called from the partition's own work item.
        ``schema`` is the partition's schema extended by the new fields.

        Tuples do not move: under a permutation vector the new columns are
        scattered back to the physical order it indexes (logical row ``i``
        is physical row ``perm[i]``), and a spilled partition appends them to
        its file — unless a later reader needs none of it (see :meth:`pin`)."""
        rows = self.num_rows
        if len(schema) != len(self.schema) + len(columns) or any(
            len(col) != rows for col in columns
        ):
            raise ExecutionError("window column length mismatch")
        permutation = self._permutation()
        if permutation is not None:
            columns = [col.scatter(permutation, rows) for col in columns]
        if self.writes_through:
            self._spill.append_columns([[col] for col in columns])
        if not self.is_spilled or self._pin is not None:
            self._state.chunks = [Batch(schema, self.compact().columns + list(columns))]
        self.schema = schema

    def __repr__(self) -> str:
        mode = "spilled" if self.is_spilled else (
            "perm" if self.permutation is not None else (
                "compact" if len(self.chunks) <= 1 else f"{len(self.chunks)} chunks"
            )
        )
        return f"BufferPartition({self.num_rows} rows, {mode})"


class _Pin:
    """A partition's state while a chain item holds it (see
    :meth:`BufferPartition.pin`): the chunk list, permutation vector and
    copied keys every access path works on, and whether a reader after the
    chain needs the partition."""

    __slots__ = ("keep", "chunks", "permutation", "key_cache")

    def __init__(self, keep: bool):
        self.keep = keep
        self.chunks: List[Batch] = []
        self.permutation: Optional[np.ndarray] = None
        self.key_cache: dict = {}


class _Released:
    """The stand-in spill file of a released partition: its row count
    survives, reading or appending raises."""

    __slots__ = ("rows",)

    def __init__(self, rows: int):
        self.rows = rows

    def _gone(self, *args) -> None:
        raise ExecutionError("a partition released after its last reader was used again")

    read_batch = read_permutation = append_permutation = append_columns = _gone


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
        self.spill_manager = manager
        self.memory_budget = memory_budget

    def approx_bytes(self) -> int:
        """Loaded footprint; a dictionary shared across partitions (every
        slice of a table column) counts once for the whole buffer."""
        return approx_batch_bytes(
            *(chunk for p in self.partitions for chunk in p.chunks)
        )

    def spill_over_budget(self) -> int:
        """Spill largest-first until the loaded footprint fits the budget;
        returns the number of partitions spilled. The footprint measured
        first is what entered the PARTITION: the manager counts it as
        ``partition_input_bytes``.

        The partitions that stay loaded divide what is left of the budget
        among themselves in proportion to their size: a partition that a
        later chain item grows beyond its share (WINDOW appending columns)
        spills itself when that item ends (:meth:`BufferPartition.unpin`),
        so the loaded footprint stays within the budget without any further
        buffer-wide pass."""
        if not self.spilling:
            return 0
        budget = self.memory_budget or 0
        loaded = [
            (flat_batch_bytes(*p.chunks), p)
            for p in self.partitions
            if p.num_rows and not p.is_spilled
        ]
        loaded.sort(key=lambda entry: entry[0], reverse=True)
        flat = sum(size for size, _ in loaded)
        # Dictionaries are shared: they count as loaded while any partition is.
        total = self.approx_bytes()
        self.spill_manager.count(partition_input_bytes=total)
        shared = total - flat
        spilled = 0
        for size, partition in loaded:
            if flat + shared <= budget:
                break
            partition.spill(self.spill_manager)
            flat -= size
            spilled += 1
        headroom = budget - (flat + shared)
        for size, partition in loaded[spilled:]:
            share = partition.approx_bytes() + headroom * size // max(flat, 1)
            partition._share = (self.spill_manager, share)
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
    def scatter_run(self, run: Sequence[Batch]) -> List[Tuple[int, Batch]]:
        """Pure scatter: split a run of consecutive batches into ``(partition
        id, sub-batch)`` pieces by the hash of ``partitioned_by`` *without
        mutating the buffer* — the run is concatenated and scattered once,
        so each partition gets at most one piece, its rows in run order.
        Work items scatter concurrently, and the caller hands the pieces to
        :meth:`append_pieces` after the region barrier, in deterministic
        submission order. With no partition keys (or a single partition)
        the run is one piece for partition 0.
        """
        batch = run[0] if len(run) == 1 else Batch.concat(run)
        if len(batch) == 0:
            return []
        if not self.partitioned_by or self.num_partitions == 1:
            return [(0, batch)]
        return scatter_rows(batch, self.partitioned_by, self.num_partitions)

    def append_pieces(self, pieces: Sequence[Tuple[int, Batch]]) -> None:
        """Append scattered pieces to their partitions (serial merge step)."""
        for pid, piece in pieces:
            self.partitions[pid].append(piece)

    # ------------------------------------------------------------------
    # Consumption paths
    # ------------------------------------------------------------------
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
        self.ordered_by = tuple(ordering)

    def ordering_satisfies(self, required: Ordering) -> bool:
        """True if the buffer's ordering has ``required`` as a prefix — the
        paper's sort-elision condition."""
        return ordering_satisfies(self.ordered_by, required)

    def columns_appended(self, schema: Schema) -> None:
        """Adopt the schema every partition was extended to by
        :meth:`BufferPartition.append_columns` (the WINDOW write-back runs
        partition by partition inside work items; this is its serial
        epilogue). A later WINDOW of the same chain may have extended the
        partitions further already: their schemas start with ``schema``."""
        width = len(schema)
        if any(p.schema.fields[:width] != schema.fields for p in self.partitions):
            raise ExecutionError("per-partition column count mismatch")
        self.schema = schema

    def __repr__(self) -> str:
        props = []
        if self.partitioned_by:
            props.append(f"partitioned_by={self.partitioned_by}")
        if self.ordered_by:
            props.append(f"ordered_by={self.ordered_by}")
        inner = ", ".join(props)
        return f"TupleBuffer({self.num_rows} rows, {self.num_partitions} partitions{', ' + inner if inner else ''})"
