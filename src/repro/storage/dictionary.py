"""String dictionaries — the physical representation of ``STRING`` columns.

A string column stores int32 *codes* into a :class:`StringDictionary`: an
immutable array of distinct Python strings. Everything the data plane
needs from a string is precomputed per dictionary *entry* and gathered by
code:

- ``rank`` — the entry's position in sorted order, so ``rank[codes]`` sorts,
  groups and range-detects exactly like the strings themselves;
- ``hash`` — a deterministic 63-bit FNV-1a of the entry. It only ever
  *chooses a partition*; equality is always decided on codes.

Codes of two dictionaries are comparable only after :meth:`unify` (or
:meth:`translate`) has mapped one side into the other's code space. A
dictionary grows by *prefix-extension*: :meth:`extended` returns a new
dictionary whose first ``len(self)`` entries are ``self``'s, so codes issued
against the old dictionary stay valid against the new one and snapshots
held by concurrent readers are never touched. That is the table-append
path; recognizing the relation (:meth:`is_prefix_of`) makes unification of
an old and a new snapshot free.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_INT63_MASK = np.uint64(0x7FFFFFFFFFFFFFFF)


def fnv1a(strings: Sequence[str]) -> np.ndarray:
    """Deterministic 63-bit FNV-1a of each string's UTF-8 bytes (no
    PYTHONHASHSEED dependence), vectorized across the strings: one numpy
    step per byte position."""
    encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    hashes = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    # Longest first: the strings still running at byte j are a prefix.
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    for position in range(int(sorted_lengths[0]) if len(order) else 0):
        live = order[: np.searchsorted(-sorted_lengths, -position, side="left")]
        hashes[live] = (hashes[live] ^ data[starts[live] + position]) * _FNV_PRIME
    return (hashes & _INT63_MASK).astype(np.int64)


class _Index:
    """``string -> code`` map shared by a dictionary and its
    prefix-extensions. Append-only: a dictionary of length ``n`` reads only
    codes below ``n``, so a later extension never changes what it sees."""

    __slots__ = ("codes", "lock")

    def __init__(self, codes: Dict[str, int]):
        self.codes = codes
        self.lock = threading.Lock()


class StringDictionary:
    """An immutable array of distinct strings plus lazily built, write-once
    per-entry ``rank``/``order``/``hash`` arrays."""

    __slots__ = (
        "strings", "_index", "_rank", "_order", "_hash", "_nbytes", "_translated",
    )

    def __init__(self, strings: np.ndarray, index: Optional[_Index] = None):
        strings.setflags(write=False)
        #: Distinct Python ``str`` objects; ``strings[code]`` decodes.
        self.strings = strings
        self._index = index
        self._rank: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        self._hash: Optional[np.ndarray] = None
        self._nbytes: Optional[int] = None
        #: ``(other, mapping)`` of the latest :meth:`translate`: a join probes
        #: one build dictionary with the same probe dictionary per morsel.
        self._translated: Optional[Tuple["StringDictionary", np.ndarray]] = None

    # ------------------------------------------------------------------
    @classmethod
    def encode(cls, values: np.ndarray) -> Tuple[np.ndarray, "StringDictionary"]:
        """``(codes, dictionary)`` of an object array of strings. Entries
        are numbered in order of first occurrence — two hash lookups per
        row, no sort."""
        if len(values) == 0:
            return np.empty(0, dtype=np.int32), EMPTY
        rows = values.tolist()
        codes_of: Dict[str, int] = {s: code for code, s in enumerate(dict.fromkeys(rows))}
        codes = np.fromiter(map(codes_of.__getitem__, rows), dtype=np.int32, count=len(rows))
        return codes, cls(object_array(list(codes_of)), _Index(codes_of))

    def __len__(self) -> int:
        return len(self.strings)

    # ------------------------------------------------------------------
    # Per-entry arrays
    # ------------------------------------------------------------------
    @property
    def order(self) -> np.ndarray:
        """Codes in sorted-string order (``order[rank[c]] == c``)."""
        if self._order is None:
            self._order = np.argsort(self.strings, kind="stable")
        return self._order

    @property
    def rank(self) -> np.ndarray:
        """int64 position of each entry in sorted order."""
        if self._rank is None:
            order = self.order
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            self._rank = rank
        return self._rank

    @property
    def hash(self) -> np.ndarray:
        """int64 FNV-1a of each entry."""
        if self._hash is None:
            self._hash = fnv1a(self.strings.tolist())
        return self._hash

    @property
    def nbytes(self) -> int:
        """Approximate footprint: a pointer plus a ``str`` object per entry."""
        if self._nbytes is None:
            self._nbytes = sum(57 + len(s) for s in self.strings.tolist())
        return self._nbytes

    # ------------------------------------------------------------------
    # Cross-dictionary code mapping
    # ------------------------------------------------------------------
    def is_prefix_of(self, other: "StringDictionary") -> bool:
        """True when ``other`` decodes every code of ``self`` identically."""
        return self is other or (
            self._index is not None
            and self._index is other._index
            and len(self) <= len(other)
        )

    def _shared_index(self) -> _Index:
        index = self._index
        if index is None:
            index = _Index(dict(zip(self.strings.tolist(), range(len(self)))))
            self._index = index
        return index

    def _lookup(self, values: np.ndarray) -> np.ndarray:
        """int32 code of each string of ``values`` (-1 where absent)."""
        codes_of = self._shared_index().codes
        codes = np.fromiter(
            (codes_of.get(v, -1) for v in values.tolist()),
            dtype=np.int32,
            count=len(values),
        )
        # Codes issued by a later extension of this lineage are not ours.
        codes[codes >= len(self)] = -1
        return codes

    def encode_more(self, values: np.ndarray) -> Tuple[np.ndarray, "StringDictionary"]:
        """``(codes, dictionary)`` of an object array of strings against this
        dictionary: itself when it holds them all (the common table append),
        else its prefix-extension by the new ones. One lookup per value."""
        if self is EMPTY:
            return StringDictionary.encode(values)
        codes = self._lookup(values)
        missing = np.flatnonzero(codes < 0)
        if len(missing) == 0:
            return codes, self
        fresh_codes, fresh = StringDictionary.encode(values[missing])
        codes[missing] = fresh_codes + len(self)
        return codes, self.extended(fresh.strings.tolist())

    def translate(self, other: "StringDictionary") -> Optional[np.ndarray]:
        """``self``'s code for each entry of ``other`` (-1 where ``self``
        lacks the string); ``None`` when ``other``'s codes are valid as-is."""
        if other.is_prefix_of(self):
            return None
        memo = self._translated
        if memo is not None and memo[0] is other:
            return memo[1]
        mapping = self._lookup(other.strings)
        mapping.setflags(write=False)
        self._translated = (other, mapping)
        return mapping

    def extended(self, new_strings: List[str]) -> "StringDictionary":
        """A prefix-extension of ``self`` by ``new_strings`` (distinct, none
        present in ``self``). O(len(new_strings)) lookups plus one pointer
        copy of the entries — no re-sort, no remap of issued codes."""
        index = self._shared_index()
        child = StringDictionary(
            np.concatenate([self.strings, object_array(new_strings)])
        )
        with index.lock:
            # Only the newest dictionary of a lineage may grow the shared
            # index; an extension of an older snapshot builds its own.
            if len(index.codes) == len(self):
                index.codes.update(zip(new_strings, range(len(self), len(child))))
                child._index = index
        if self._hash is not None:
            child._hash = np.concatenate([self._hash, fnv1a(new_strings)])
        return child

    def unify(
        self, other: "StringDictionary"
    ) -> Tuple["StringDictionary", Optional[np.ndarray]]:
        """``(merged, mapping)``: ``merged`` decodes every code of ``self``
        unchanged and ``mapping[c]`` is the merged code of ``other``'s code
        ``c`` (``None`` = unchanged). Free when either is a prefix-extension
        of the other or holds no string (:data:`EMPTY`: only NULL rows, whose
        code 0 is valid anywhere); otherwise O(len(other)) lookups."""
        if self is EMPTY or self.is_prefix_of(other):
            return other, None
        if other is EMPTY or other.is_prefix_of(self):
            return self, None
        mapping, merged = self.encode_more(other.strings)
        return merged, mapping

    def __repr__(self) -> str:
        return f"StringDictionary({len(self)} entries)"


def object_array(strings: List[str]) -> np.ndarray:
    """A 1-d object array of the given Python strings."""
    out = np.empty(len(strings), dtype=object)
    out[:] = strings
    return out


#: The dictionary of columns that hold no string at all (empty or all-NULL):
#: NULL rows carry code 0, so every dictionary has at least one entry.
EMPTY = StringDictionary(object_array([""]))
