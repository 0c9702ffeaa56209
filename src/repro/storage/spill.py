"""Partition spilling — the paper's future-work extension ("dynamically
switching between spilling and non-spilling LOLEPOP variants", §7).

A :class:`SpillManager` owns a temporary directory and serializes buffer
partitions to ``.npz`` files. A partition's chunk list is compacted and
written column-by-column (values + validity); a string column is written as
its int32 codes plus the dictionary entries those codes use, as one UTF-8
byte blob with entry end offsets — flat arrays only, nothing is pickled.
Spill and load run inside the owning operator's work items, so the I/O cost
lands in the measured execution times like any other work.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from typing import Dict, List, Optional

import numpy as np

from ..types import DataType, Schema
from .batch import Batch
from .column import Column
from .dictionary import StringDictionary, object_array


def _flat_bytes(column: Column) -> int:
    return column.data.nbytes + (0 if column.valid is None else column.valid.nbytes)


def approx_column_bytes(column: Column) -> int:
    """Rough in-memory footprint: the flat arrays, plus a string column's
    dictionary counted once (not per row)."""
    if column.dictionary is None:
        return _flat_bytes(column)
    return _flat_bytes(column) + column.dictionary.nbytes


def approx_batch_bytes(*batches: Batch) -> int:
    """Rough in-memory footprint of the batches together: their flat arrays
    plus every distinct dictionary they reference, counted once — the morsel
    slices of one table column all share its dictionary."""
    size = 0
    dictionaries: Dict[int, StringDictionary] = {}
    for batch in batches:
        for column in batch.columns:
            size += _flat_bytes(column)
            if column.dictionary is not None:
                dictionaries[id(column.dictionary)] = column.dictionary
    return size + sum(d.nbytes for d in dictionaries.values())


class SpillManager:
    """Owns the spill directory; hands out file slots and tracks totals."""

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            self.directory = tempfile.mkdtemp(prefix="repro-spill-")
        else:
            # Each manager gets a private subdirectory: concurrent queries
            # may share one configured spill root, and their part files
            # (both named part-000001.npz, ...) must never collide.
            os.makedirs(directory, exist_ok=True)
            self.directory = tempfile.mkdtemp(prefix="query-", dir=directory)
        self._counter = 0
        self._live_paths: set = set()
        #: Guards slot allocation and counters: spill/load runs inside work
        #: items, which execute on real worker threads in parallel mode.
        self._lock = threading.Lock()
        #: Total bytes written (the arrays as stored, uncompressed).
        self.spilled_bytes = 0
        self.spill_events = 0
        #: Total bytes read back from disk and load count.
        self.loaded_bytes = 0
        self.load_events = 0

    def next_path(self) -> str:
        with self._lock:
            self._counter += 1
            counter = self._counter
        return os.path.join(self.directory, f"part-{counter:06d}.npz")

    # ------------------------------------------------------------------
    def write_batch(self, batch: Batch) -> str:
        """Serialize a batch; returns the file path."""
        path = self.next_path()
        payload: Dict[str, np.ndarray] = {}
        for index, column in enumerate(batch.columns):
            data = column.data
            if column.dictionary is not None:
                # Write only the entries this partition references.
                used = np.zeros(len(column.dictionary), dtype=bool)
                used[data] = True
                data = (np.cumsum(used, dtype=np.int32) - 1)[data]
                entries = [
                    s.encode("utf-8", "surrogatepass")
                    for s in column.dictionary.strings[used].tolist()
                ]
                payload[f"d{index}"] = np.frombuffer(b"".join(entries), dtype=np.uint8)
                payload[f"e{index}"] = np.cumsum([len(e) for e in entries], dtype=np.int64)
            payload[f"v{index}"] = data
            if column.valid is not None:
                payload[f"m{index}"] = column.valid
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        with self._lock:
            self.spilled_bytes += sum(array.nbytes for array in payload.values())
            self.spill_events += 1
            self._live_paths.add(path)
        return path

    def read_batch(self, path: str, schema: Schema) -> Batch:
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        columns: List[Column] = []
        for index, field in enumerate(schema):
            values = arrays[f"v{index}"]
            dictionary = None
            if field.dtype is DataType.STRING:
                blob = arrays[f"d{index}"].tobytes()
                ends = arrays[f"e{index}"].tolist()
                dictionary = StringDictionary(object_array([
                    blob[start:end].decode("utf-8", "surrogatepass")
                    for start, end in zip([0] + ends, ends)
                ]))
            columns.append(
                Column(field.dtype, values, arrays.get(f"m{index}"), dictionary)
            )
        batch = Batch(schema, columns)
        with self._lock:
            self.loaded_bytes += sum(array.nbytes for array in arrays.values())
            self.load_events += 1
        return batch

    def release(self, path: str) -> None:
        with self._lock:
            self._live_paths.discard(path)
        try:
            os.unlink(path)
        except OSError:
            pass

    def cleanup(self) -> None:
        """Delete every file this manager created and its (always
        manager-private) directory."""
        for path in list(self._live_paths):
            self.release(path)
        shutil.rmtree(self.directory, ignore_errors=True)
