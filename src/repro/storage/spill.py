"""Partition spilling — the paper's future-work extension ("dynamically
switching between spilling and non-spilling LOLEPOP variants", §7).

A spilled partition *is* its chunk list on disk. A :class:`SpillManager`
owns a temporary directory; each spilled partition owns one append-only
:class:`SpillFile` in it, holding raw column bytes and nothing else:

- a column's values, chunk after chunk, so the file is the compacted
  partition and a read is one contiguous array per column;
- its validity bytes, when any chunk has NULLs;
- for a string column the int32 codes plus, once per column, the dictionary
  entries those codes use as one UTF-8 blob with int64 entry end offsets —
  flat arrays only, nothing is pickled;
- the latest permutation vector (8 bytes a row), appended by SORT;
- columns appended later by WINDOW, in the same physical row order.

Which bytes are which column is the *segment index*, kept in memory by the
``SpillFile``; the file has no header and no container. Nothing is ever
rewritten: a read returns a transient batch and leaves the file in place.
Writes and reads run inside the owning operator's work items, so the I/O
cost lands in the measured execution times like any other work.

Every file operation goes through :meth:`SpillManager.io`, the
fault-injection seam: tests install ``SpillManager.io_hook`` to raise
``OSError`` on the Nth open / write / read. Any ``OSError`` surfaces as a
:class:`~repro.errors.SpillError` naming the partition file.
"""

from __future__ import annotations

import os
import tempfile
import threading
from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..errors import SpillError
from ..types import Schema
from .batch import Batch
from .column import Column
from .dictionary import StringDictionary, object_array


def flat_column_bytes(column: Column) -> int:
    """The column's value and validity arrays, without its dictionary."""
    return column.data.nbytes + (0 if column.valid is None else column.valid.nbytes)


def approx_column_bytes(column: Column) -> int:
    """Rough in-memory footprint: the flat arrays, plus a string column's
    dictionary counted once (not per row)."""
    if column.dictionary is None:
        return flat_column_bytes(column)
    return flat_column_bytes(column) + column.dictionary.nbytes


def flat_batch_bytes(*batches: Batch) -> int:
    """The batches' value and validity arrays, without any dictionary."""
    return sum(flat_column_bytes(column) for batch in batches for column in batch.columns)


def approx_batch_bytes(*batches: Batch) -> int:
    """Rough in-memory footprint of the batches together: their flat arrays
    plus every distinct dictionary they reference, counted once — the morsel
    slices of one table column all share its dictionary."""
    dictionaries: Dict[int, StringDictionary] = {}
    for batch in batches:
        for column in batch.columns:
            if column.dictionary is not None:
                dictionaries[id(column.dictionary)] = column.dictionary
    return flat_batch_bytes(*batches) + sum(d.nbytes for d in dictionaries.values())


class _Segment(NamedTuple):
    """Where one column lives in a spill file (byte offsets)."""

    dtype: np.dtype  # of the stored values (int32 codes for a string column)
    data: int
    valid: Optional[int]  # ``None``: the column has no NULLs
    #: String columns only: (blob offset, blob bytes, ends offset, entries).
    dictionary: Optional[Tuple[int, int, int, int]]


class SpillFile:
    """One spilled partition: an append-only file and its segment index."""

    __slots__ = ("manager", "path", "rows", "columns", "permutation", "size")

    def __init__(self, manager: "SpillManager", path: str, rows: int):
        self.manager = manager
        self.path = path
        self.rows = rows
        #: One segment per column, in the partition's schema order.
        self.columns: List[_Segment] = []
        #: Offset of the latest permutation vector, if SORT appended one.
        self.permutation: Optional[int] = None
        #: Bytes appended so far; a shorter file on disk is truncated.
        self.size = 0

    @property
    def name(self) -> str:
        return os.path.basename(self.path)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append_columns(self, columns: Sequence[Sequence[Column]]) -> None:
        """Append columns, each given as its pieces in physical row order
        (a partition's chunk list, or one whole column)."""
        with self._appending() as write:
            for pieces in columns:
                if pieces[0].dictionary is not None:
                    self.columns.append(_write_strings(write, Column.concat(pieces)))
                    continue
                data = write(*(piece.data for piece in pieces))
                valid = None
                if any(piece.valid is not None for piece in pieces):
                    valid = write(*(piece.valid_mask() for piece in pieces))
                self.columns.append(_Segment(pieces[0].data.dtype, data, valid, None))

    def append_permutation(self, permutation: np.ndarray) -> None:
        """Append a permutation vector; it supersedes any earlier one."""
        with self._appending() as write:
            self.permutation = write(permutation.astype(np.int64, copy=False))

    @contextmanager
    def _appending(self) -> Iterator[Callable[..., int]]:
        """One append: ``write(*arrays)`` appends the arrays back to back
        and returns the offset of the first. On success the file's size and
        the manager's counters advance; an ``OSError`` (also one raised when
        the buffered bytes reach the disk at close) is a :class:`SpillError`."""
        offset = self.size

        def write(*arrays: np.ndarray) -> int:
            nonlocal offset
            start = offset
            for array in arrays:
                self.manager.io("write", self.path)
                handle.write(np.ascontiguousarray(array).data)
                offset += array.nbytes
            return start

        try:
            with self.manager.open(self.path, "ab") as handle:
                yield write
        except OSError as error:
            raise SpillError(
                f"spill write failed for partition file {self.name}: {error}"
            ) from error
        self.manager.count(bytes_written=offset - self.size, events=1)
        self.size = offset

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_batch(self, schema: Schema) -> Batch:
        """The partition's rows in physical order, as a transient batch."""
        with self._reading() as read:
            columns = []
            for field, segment in zip(schema, self.columns):
                values = read(segment.data, segment.dtype, self.rows)
                valid = None
                if segment.valid is not None:
                    valid = read(segment.valid, np.dtype(bool), self.rows)
                dictionary = None
                if segment.dictionary is not None:
                    dictionary = _read_dictionary(read, *segment.dictionary)
                columns.append(Column(field.dtype, values, valid, dictionary))
        return Batch(schema, columns)

    def read_permutation(self) -> Optional[np.ndarray]:
        if self.permutation is None:
            return None
        with self._reading() as read:
            return read(self.permutation, np.dtype(np.int64), self.rows)

    @contextmanager
    def _reading(self) -> Iterator[Callable[..., np.ndarray]]:
        """One read: ``read(offset, dtype, count)`` returns a fresh array. A
        file shorter than what was appended is reported by length, before
        any byte is interpreted."""
        nbytes = 0

        def read(offset: int, dtype: np.dtype, count: int) -> np.ndarray:
            nonlocal nbytes
            array = np.empty(count, dtype=dtype)
            target = array.view(np.uint8)
            self.manager.io("read", self.path)
            handle.seek(offset)
            filled = 0
            while filled < len(target):
                got = handle.readinto(target[filled:])
                if not got:
                    raise SpillError(
                        f"spill file {self.name} is truncated: short read at "
                        f"offset {offset + filled}"
                    )
                filled += got
            nbytes += array.nbytes
            return array

        try:
            with self.manager.open(self.path, "rb") as handle:
                on_disk = os.fstat(handle.fileno()).st_size
                if on_disk < self.size:
                    raise SpillError(
                        f"spill file {self.name} is truncated: {on_disk} bytes "
                        f"on disk, {self.size} written"
                    )
                yield read
        except OSError as error:
            raise SpillError(
                f"spill read failed for partition file {self.name}: {error}"
            ) from error
        self.manager.count(bytes_read=nbytes, loads=1)


def _write_strings(write: Callable[..., int], column: Column) -> _Segment:
    """Codes renumbered over the dictionary entries this column references,
    and those entries once."""
    used = np.zeros(len(column.dictionary), dtype=bool)
    used[column.data] = True
    codes = (np.cumsum(used, dtype=np.int32) - 1)[column.data]
    entries = [
        s.encode("utf-8", "surrogatepass")
        for s in column.dictionary.strings[used].tolist()
    ]
    blob = np.frombuffer(b"".join(entries), dtype=np.uint8)
    ends = np.cumsum([len(e) for e in entries], dtype=np.int64)
    data = write(codes)
    valid = None if column.valid is None else write(column.valid)
    return _Segment(
        codes.dtype, data, valid, (write(blob), blob.nbytes, write(ends), len(ends))
    )


def _read_dictionary(
    read: Callable[..., np.ndarray], blob_at: int, blob_bytes: int, ends_at: int, entries: int
) -> StringDictionary:
    blob = read(blob_at, np.dtype(np.uint8), blob_bytes).tobytes()
    ends = read(ends_at, np.dtype(np.int64), entries).tolist()
    return StringDictionary(object_array([
        blob[start:end].decode("utf-8", "surrogatepass")
        for start, end in zip([0] + ends, ends)
    ]))


#: The keys of :meth:`SpillManager.counters`, in order.
SPILL_COUNTERS = (
    "bytes_written", "bytes_read", "events", "loads", "release_failures",
    "partition_input_bytes",
)


class SpillManager:
    """Owns the spill directory; hands out partition files, tracks totals."""

    #: Fault-injection seam: when set, called as ``io_hook(operation, path)``
    #: with ``"open"``, ``"write"`` or ``"read"`` before every such file
    #: operation; raising ``OSError`` there is an injected I/O failure.
    io_hook: Optional[Callable[[str, str], None]] = None

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            self.directory = tempfile.mkdtemp(prefix="repro-spill-")
        else:
            # Each manager gets a private subdirectory: concurrent queries
            # may share one configured spill root, and their part files
            # (both named part-000001.bin, ...) must never collide.
            os.makedirs(directory, exist_ok=True)
            self.directory = tempfile.mkdtemp(prefix="query-", dir=directory)
        self._counter = 0
        self._live: Set[SpillFile] = set()
        #: Guards slot allocation and counters: spilling runs inside work
        #: items, which execute on real worker threads in parallel mode.
        self._lock = threading.Lock()
        #: Bytes appended to spill files and the appends (``events``), bytes
        #: read back and the reads (``loads``), files or directories that
        #: could not be deleted, and the bytes that entered a budgeted
        #: PARTITION (what write amplification is measured against).
        self._counts = dict.fromkeys(SPILL_COUNTERS, 0)

    # ------------------------------------------------------------------
    def io(self, operation: str, path: str) -> None:
        hook = self.io_hook
        if hook is not None:
            hook(operation, path)

    def open(self, path: str, mode: str):
        self.io("open", path)
        # Appends are many small pieces: buffer them. Reads are one exact
        # ``readinto`` per segment: no buffer to copy through.
        return open(path, mode, buffering=1 << 20 if mode == "ab" else 0)

    def count(self, **amounts: int) -> None:
        """Add to counters named by :data:`SPILL_COUNTERS` keys."""
        with self._lock:
            for key, amount in amounts.items():
                self._counts[key] += amount

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    # ------------------------------------------------------------------
    def create(self, rows: int) -> SpillFile:
        """A new, empty partition file for ``rows`` rows."""
        with self._lock:
            self._counter += 1
            path = os.path.join(self.directory, f"part-{self._counter:06d}.bin")
            file = SpillFile(self, path, rows)
            self._live.add(file)
        return file

    def spill_chunks(self, chunks: Sequence[Batch]) -> SpillFile:
        """Write a chunk list (same-schema batches) as one partition file,
        column by column straight from the chunks."""
        file = self.create(sum(len(chunk) for chunk in chunks))
        file.append_columns([
            [chunk.columns[index] for chunk in chunks]
            for index in range(len(chunks[0].columns))
        ])
        return file

    def release(self, file: SpillFile) -> None:
        """Delete a partition file; a failure is counted, not raised."""
        with self._lock:
            self._live.discard(file)
        try:
            os.unlink(file.path)
        except FileNotFoundError:
            pass  # created but never written: the first append failed
        except OSError:
            self.count(release_failures=1)

    def cleanup(self) -> None:
        """Delete every file this manager created and its (always
        manager-private) directory; idempotent."""
        for file in list(self._live):
            self.release(file)
        try:
            os.rmdir(self.directory)
        except FileNotFoundError:
            pass  # already cleaned up
        except OSError:
            self.count(release_failures=1)
