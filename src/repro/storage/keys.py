"""Multi-column key encoding.

Hashing, grouping, joining, partitioning and sorting all operate on
composite keys (several columns, possibly with NULLs). This module is the
only place that knows how a value becomes a key:

- :func:`fit_keys` / :func:`encode_keys` — the *packed key space*: composite
  keys as one mixed-radix int64, for equality (grouping, join build and
  probe). :func:`group_codes` numbers the groups in it: by a table over a
  narrow space, by the runs of one sort (:func:`number_runs`) otherwise.
  NULL keys follow GROUP BY semantics: NULL equals NULL (one NULL group).
- :func:`sort_segments` — the same digits in ORDER BY's order: per-key
  direction, NULLS LAST, a new int64 segment whenever 63 bits are full, a
  float key a float64 segment of its own. :func:`lexsort_indices`,
  the MERGE step and ``group_codes`` past 63 bits all sort these arrays and
  no others.
- :func:`stable_order` — the one sort kernel: the stable lexicographic order
  of such segments, computed as a single unstable sort of one packed
  ``(key, row id)`` int64 per row (unique keys, so the order is the stable
  one). A float segment packs as exact fixed-point digits when its values
  are decimals of at most six places (money, quantities, readings), as its
  dense rank otherwise. Every multi-key sort of the engine goes through it.
- :func:`hash_codes` / :func:`partition_ids` — the scatter hash: each key
  column's int64s (a string's FNV-1a, so equal in any dictionary) times one
  odd constant, xor-folded column into column, and a partition picked from
  the high bits by multiply-shift. A few array passes per key, so a scatter
  pays for its rows. PARTITION, HASHAGG's merge scatter and the monolithic
  baseline all scatter through it; :func:`table_slots` adds one finalizer
  for HASHAGG's occupancy probe. A hash only ever picks a partition or a
  slot; no caller decides equality on it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..types import DataType
from .column import Column

_HASH_PRIME = np.uint64(0x9E3779B97F4A7C15)
_MIX_PRIME = np.uint64(0xBF58476D1CE4E5B9)

_NULL_SENTINEL = np.iinfo(np.int64).min + 1

#: The scales a float sort key is tried at as fixed-point digits: whole
#: numbers up to six decimal places (cents, readings in thousandths).
DECIMAL_SCALES = 10.0 ** np.arange(7)
#: Rows a scale is tried on before every row is checked at it.
_DECIMAL_SAMPLE = 64
#: Every integer below this magnitude is a float64: ``rint(x·s)`` is exact.
_EXACT = 2.0**53

#: A table over the packed key range itself (grouping, join build) replaces
#: the sort (:func:`number_runs`) up to this many slots per row. Measured on
#: uniform and clustered int64 keys, table vs sort: 1.4-2x faster at 1n;
#: even at 2n on 16 k rows (0.42-0.63 vs 0.44-0.46 ms) and up to 1.3x slower
#: on 200 k (8.3-10.0 vs 7.5-8.2 ms); 2.5-4x slower at 4n and 8n. The
#: crossover is near 1.5n; 2n is kept, where the two are close and which
#: also bounds the table's size.
DIRECT_TABLE_FACTOR = 2


def _key_ints(data: np.ndarray, as_bits: bool) -> np.ndarray:
    """The int64 a number compares by: itself, or its float64 bits (-0.0 as 0.0)."""
    if as_bits:
        return (data.astype(np.float64, copy=False) + 0.0).view(np.int64)
    return data.astype(np.int64, copy=False)


def _normalize_values(column: Column, entries: str = "rank") -> np.ndarray:
    """Map column values to an int64 array where equal values have equal
    representation and NULLs are distinguishable.

    Strings gather a per-entry array of their dictionary by code: ``rank``
    (order-preserving and collision-free, comparable within one column —
    grouping, sorting, range detection) or ``hash`` (equal for equal strings
    in *any* dictionary — partitioning only, never equality)."""
    if column.dictionary is not None:
        values = getattr(column.dictionary, entries)[column.data]
    else:
        values = _key_ints(column.data, column.dtype is DataType.FLOAT64)
    if column.valid is not None:
        values = values.copy()
        values[~column.valid] = _NULL_SENTINEL
    return values


def key_change_flags(columns: Sequence[Column]) -> np.ndarray:
    """Boolean array: True at row i when row i's keys differ from row i-1's.

    Row 0 is always True. NULL keys compare equal to NULL (GROUP BY
    semantics) and unequal to every value."""
    n = len(columns[0]) if columns else 0
    if n == 0:
        return np.zeros(0, dtype=bool)
    flags = np.zeros(n, dtype=bool)
    flags[0] = True
    for column in columns:
        values = _normalize_values(column)
        flags[1:] |= values[1:] != values[:-1]
        if column.valid is not None:
            flags[1:] |= column.valid[1:] != column.valid[:-1]
    return flags


def _key_range(column: Column) -> Tuple[int, int]:
    """``(low, high)`` of the int64s the column's values compare by (strings:
    their dictionary's ranks, no pass over the rows); NULLs do not count."""
    if column.dictionary is not None:
        return 0, len(column.dictionary) - 1
    present = _key_ints(column.data, column.dtype is DataType.FLOAT64)
    if column.valid is not None:
        present = present[column.valid]
    if not len(present):
        return 0, 0
    return int(present.min()), int(present.max())


def fit_keys(columns: Sequence[Column]) -> Optional[Tuple[list, int]]:
    """The packed key space of ``columns``, ``(digits, capacity)``: composite
    keys as one mixed-radix int64 in ``[0, capacity)``, most significant
    digit first (so packed order is lexicographic key order), or ``None``
    when the product of the per-column ranges does not fit in 63 bits.
    ``digits`` holds ``(low, radix, column)`` per column: a value's digit is
    its offset from the column minimum plus one; zero is NULL, so NULL keys
    sort first and equal only each other."""
    digits, capacity = [], 1
    for column in columns:
        low, high = _key_range(column)
        digits.append((low, high - low + 2, column))
        capacity *= high - low + 2
    return (digits, capacity) if capacity < 1 << 63 else None


def encode_keys(
    space: Tuple[list, int], columns: Sequence[Column]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(packed, matchable)``: ``columns`` mapped into ``space``, and which
    rows hold a key of it (``None``: all). A NULL, a value outside the fitted
    range — tested before the offset is taken, so no ``int64`` extreme wraps
    into a digit — or a string the fitted dictionary lacks gets digit zero,
    which no fitted value has. Strings compare by the fitted dictionary's
    ranks, numbers the way ``=`` does whatever the two column types."""
    packed = np.zeros(len(columns[0]), dtype=np.int64)
    matchable = []
    for column, (low, radix, fitted) in zip(columns, space[0]):
        data, masks = column.data, [column.valid]
        as_bits = fitted.dtype is DataType.FLOAT64
        if (column.dictionary is None) != (fitted.dictionary is None):
            # A string key against a NULL literal's placeholder type.
            values = np.zeros(len(data), dtype=np.int64)
            masks.append(values != 0)
        elif fitted.dictionary is not None:
            mapping = fitted.dictionary.translate(column.dictionary)
            if mapping is not None:
                data = mapping[data]
                masks.append(data >= 0)
            values = fitted.dictionary.rank[data]
        else:
            if column.dtype is DataType.FLOAT64 and column is not fitted:
                if as_bits:
                    masks.append(data == data)  # NaN equals nothing
                else:  # only a whole float equals an integer
                    masks.append((data == np.floor(data)) & (np.abs(data) < 2.0**63))
                    data = np.where(masks[-1], data, 0.0)
            values = _key_ints(data, as_bits)
            if column is not fitted:
                masks.append((values >= low) & (values <= low + radix - 2))
        digits = (values - low) + 1
        masks = [mask for mask in masks if mask is not None]
        if masks:
            matchable.append(np.logical_and.reduce(masks))
            digits[~matchable[-1]] = 0
        packed = packed * radix + digits
    return packed, np.logical_and.reduce(matchable) if matchable else None


def group_codes(columns: Sequence[Column]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dense group encoding of composite keys.

    Returns ``(codes, representatives, num_groups)`` where ``codes[i]`` is the
    dense id (0..num_groups-1) of row ``i``'s key, and ``representatives[g]``
    is the index of the first row belonging to group ``g``. Group ids are
    assigned in lexicographic key order (NULL first within a column), not
    in order of first occurrence.
    """
    if not columns:
        raise ValueError("group_codes requires at least one key column")
    n = len(columns[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    space = fit_keys(columns)
    if space is not None:
        packed, capacity = encode_keys(space, columns)[0], space[1]
        if capacity > DIRECT_TABLE_FACTOR * n:
            return number_runs([packed])
        # Few possible keys per row (dictionary ranks, narrow ints): no sort.
        # Assigning rows back to front leaves each key's first row in its slot.
        first_row = np.full(capacity, n, dtype=np.int64)
        first_row[packed[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        present = first_row < n
        codes = (np.cumsum(present) - 1)[packed]
        first_index = first_row[present]
        return codes, first_index, len(first_index)
    # Ranges too wide to pack: floats group by their bits, as above;
    # descending NULLS LAST, complemented, is ascending NULLS FIRST — the
    # order the packed path numbers groups in.
    ints = [
        Column(DataType.INT64, _key_ints(column.data, True), column.valid)
        if column.dtype is DataType.FLOAT64
        else column
        for column in columns
    ]
    return number_runs([~segment for segment in sort_segments(ints, [True] * len(ints))])


def number_runs(segments: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, int]:
    """:func:`group_codes` of rows keyed by integer ``segments`` (the first one
    most significant): one :func:`stable_order`, then its runs of equal keys
    are numbered. Codes follow the segments' order; a group's representative
    is its first row, the first of its run because the order is stable."""
    n = len(segments[0])
    order = stable_order(segments)
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for segment in segments:
        ordered = segment[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(starts) - 1
    first_index = order[starts]
    return codes, first_index, len(first_index)


def hash_codes(columns: Sequence[Column]) -> np.ndarray:
    """64-bit composite hash of the key columns, deterministic across runs
    (no ``PYTHONHASHSEED``), which traces and tests rely on.

    Each column's :func:`_normalize_values` int64s are multiplied by
    ``_HASH_PRIME`` (Fibonacci hashing), the hash of the columns before it
    xor-folded in first: one wrapping multiply per column. The high bits
    are well spread — an arithmetic progression of keys, the common case,
    lands evenly — the low bits are not: pick with :func:`partition_ids`,
    never by ``%``."""
    if not columns:
        raise ValueError("hash_codes requires at least one key column")
    acc: Optional[np.ndarray] = None
    for column in columns:
        values = _normalize_values(column, "hash").view(np.uint64)
        if acc is None:
            acc = values * _HASH_PRIME  # a fresh array: values may be the column's
        else:
            acc ^= values
            acc *= _HASH_PRIME
    return acc


def _pick(hashes: np.ndarray, count: int) -> np.ndarray:
    """``((h >> 32) · count) >> 32`` per hash, in place: the bucket in
    ``[0, count)`` that the hash's high 32 bits fall in."""
    hashes >>= np.uint64(32)
    hashes *= np.uint64(count)
    hashes >>= np.uint64(32)
    return hashes.view(np.int64)


def partition_ids(columns: Sequence[Column], num_partitions: int) -> np.ndarray:
    """Partition assignment (0..num_partitions-1) per row: the high bits of
    :func:`hash_codes` by multiply-shift."""
    return _pick(hash_codes(columns), num_partitions)


def table_slots(columns: Sequence[Column], count: int) -> np.ndarray:
    """Slot (0..count-1) per row of a hash table whose slots are as good as
    random: :func:`hash_codes` through one xor-shift-multiply finalizer.
    Fibonacci hashing alone spreads dense keys *evenly*, which fills more
    slots than a real table's collisions do; an occupancy test tuned for
    random slots (HASHAGG's saturation probe) reads this instead."""
    hashes = hash_codes(columns)
    hashes ^= hashes >> np.uint64(32)
    hashes *= _MIX_PRIME
    return _pick(hashes, count)


def bucket_order(ids: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: the stable order of rows by bucket id (``0 ≤ id <
    count``) — bucket-major, original order within a bucket — and each
    bucket's ``[bounds[b], bounds[b + 1])`` slice of it. Ids narrowed to
    ``uint16`` where they fit, so numpy's stable sort is a radix sort."""
    narrow = ids.astype(np.uint16) if count <= 1 << 16 else ids
    order = np.argsort(narrow, kind="stable")
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=count), out=bounds[1:])
    return order, bounds


def sort_segments(
    columns: Sequence[Column], descending: Optional[Sequence[bool]] = None
) -> List[np.ndarray]:
    """The fewest arrays whose lexicographic order — first array most
    significant, ties left to a stable sort — is ORDER BY's: ``descending[i]``
    flips the i-th key, NULLs come last within their key either way.

    Consecutive int, date, bool and string keys share a mixed-radix int64
    *segment* while their ranges fit 63 bits: an ascending digit is the offset
    from the column minimum, a descending one the offset from the maximum
    (nothing is negated, so no extreme wraps), NULL the digit past both. A
    float key, or an int key as wide as int64 itself, is a segment of its
    own; its NULL flag is the last digit of the segment before it, so no
    value ties with NULL (NaN sorts after every number, before NULL)."""
    if descending is None:
        descending = [False] * len(columns)
    segments: List[np.ndarray] = []
    packed: Optional[np.ndarray] = None  # the open segment
    capacity = 1

    def push(digits: np.ndarray, radix: int) -> None:
        nonlocal packed, capacity
        if capacity * radix >= 1 << 63:
            close()
        packed = digits if packed is None else packed * radix + digits
        capacity *= radix

    def close() -> None:
        nonlocal packed, capacity
        if packed is not None:
            segments.append(packed)
        packed, capacity = None, 1

    for index, (column, desc) in enumerate(zip(columns, descending)):
        valid, is_float = column.valid, column.dtype is DataType.FLOAT64
        values = column.data
        if column.dictionary is not None:
            values = column.dictionary.rank[values]
        elif not is_float:
            values = values.astype(np.int64, copy=False)
        after = columns[index + 1] if index + 1 < len(columns) else None
        if valid is None and not desc and packed is None and (
            after is None or (after.dtype is DataType.FLOAT64 and after.valid is None)
        ):
            # Nothing to pack with: the column as it stands, no range pass.
            segments.append(values)
            continue
        low, high = (0, 0) if is_float else _key_range(column)
        if is_float or high - low + 2 >= 1 << 63:
            if valid is not None:
                push((~valid).astype(np.int64), 2)
            close()
            if desc:
                values = -values if is_float else ~values
            segments.append(values if valid is None else np.where(valid, values, 0))
        else:
            digits = high - values if desc else values - low
            if valid is not None:
                digits[~valid] = high - low + 1
            push(digits, high - low + 1 + (valid is not None))
    close()
    return segments


def _dense_rank(segment: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(ranks, count)``: each value's rank among the distinct values, by
    one unstable argsort. NaN ties with NaN (numpy sorts it last) and -0.0
    with 0.0, as in any numpy sort."""
    order = np.argsort(segment)
    ordered = segment[order]
    # steps[i]: whether sorted position i starts a new value; summed in
    # place, so no bool-to-int64 copy is made.
    steps = np.zeros(len(segment), dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=steps[1:])
    if segment.dtype.kind == "f":
        steps[1:] &= ~np.isnan(ordered[:-1])
    del ordered  # before the ranks are allocated: one array less at peak
    np.cumsum(steps, out=steps)
    ranks = np.empty_like(steps)
    ranks[order] = steps
    return ranks, int(steps[-1]) + 1


def _decimal_digits(segment: np.ndarray, max_radix: int) -> Optional[Tuple[np.ndarray, int]]:
    """``(digits, radix)``: a float segment as exact fixed-point integers
    offset to ``[0, radix)``, ``radix <= max_radix``, or ``None``.

    The scale is the first of ``DECIMAL_SCALES`` under which a sample of
    rows round-trips, and every row must: ``rint(x·s) / s == x`` and
    ``|rint(x·s)| < 2^53``. The first sample is the first rows; where some
    row fails, the failing rows are the next sample, so whole numbers
    followed by halves end at the scale of the halves. Division by ``s`` is
    monotone, so under that check ``x -> rint(x·s)`` is strictly monotone
    and one-to-one: the digits order and tie exactly as the floats do (-0.0
    with 0.0). NaN never equals itself and ±inf is not below 2^53, so
    neither ever passes."""
    rows = segment[:_DECIMAL_SAMPLE]
    fits = np.ones(len(DECIMAL_SCALES), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # x·s may overflow
        while True:  # each round rules out the scale it tried
            scaled = np.rint(np.multiply.outer(DECIMAL_SCALES, rows))
            exact = scaled / DECIMAL_SCALES[:, None] == rows
            fits &= (exact & (np.abs(scaled) < _EXACT)).all(axis=1)
            if not fits.any():
                return None
            scale = DECIMAL_SCALES[fits.argmax()]
            scaled = np.rint(segment * scale)
            misses = scaled / scale != segment
            if not misses.any():
                break
            rows = segment[np.flatnonzero(misses)[:_DECIMAL_SAMPLE]]
    low, high = scaled.min(), scaled.max()
    if not -_EXACT < low <= high < _EXACT or int(high) - int(low) + 1 > max_radix:
        return None
    digits = scaled.astype(np.int64)
    digits -= int(low)  # in int64: a float64 subtraction could round two apart
    return digits, int(high) - int(low) + 1


def _packed_keys(segments: Sequence[np.ndarray], limit: int) -> Optional[np.ndarray]:
    """The segments' digits packed mixed-radix into one int64 per row, in
    ``[0, limit)``, or ``None`` when they do not fit.

    A decimal digit can be wider than the float's dense rank, so when the
    digits do not fit and one of them was decimal, every float is ranked
    instead: whatever packs with all floats ranked packs here too."""
    for decimals in (True, False):
        packed: Optional[np.ndarray] = None
        capacity, fixed = 1, False
        for segment in segments:
            if segment.dtype.kind == "f":
                found = _decimal_digits(segment, (limit - 1) // capacity) if decimals else None
                fixed |= found is not None
                digit, radix = found if found is not None else _dense_rank(segment)
            else:
                low, high = int(segment.min()), int(segment.max())
                radix = high - low + 1
                if capacity * radix < limit:  # then the offset cannot wrap
                    digit = segment.astype(np.int64, copy=False) - low
                else:
                    digit, radix = _dense_rank(segment)
            if capacity * radix >= limit:
                break
            if packed is None:
                packed = digit  # offsets, digits and ranks are fresh arrays
            else:
                packed *= radix
                packed += digit
            capacity *= radix
        else:
            return packed
        if not fixed:
            return None
    return None


def stable_order(segments: Sequence[np.ndarray]) -> np.ndarray:
    """The stable lexicographic order of ``segments`` (the first one most
    significant): exactly ``np.lexsort(segments[::-1])``, by one sort.

    Each segment becomes a digit — an integer its offset from its minimum
    while the running capacity fits, a float its exact decimal digits
    (:func:`_decimal_digits`) while they fit, a too-wide integer or any
    other float its dense rank — and the digits pack mixed-radix above the
    row id. The packed keys are unique, so numpy's unstable (SIMD) sort
    yields the stable order. A lone integer segment with at most one
    descent — sorted already, or two sorted runs (MERGE, a re-sort
    extending earlier keys) — keeps numpy's stable sort, which merges such
    runs in linear time. Only keys too wide to pack beside the row id take
    the per-segment lexsort."""
    n = len(segments[0])
    if n <= 1:
        return np.arange(n, dtype=np.int64)
    only = segments[0]
    if len(segments) == 1 and only.dtype.kind != "f":
        if np.count_nonzero(only[1:] < only[:-1]) <= 1:
            return np.argsort(only, kind="stable")
    bits = (n - 1).bit_length()
    packed = _packed_keys(segments, 1 << (63 - bits))
    if packed is None:
        return np.lexsort(segments[::-1])
    packed <<= bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def lexsort_indices(
    columns: Sequence[Column],
    descending: Optional[Sequence[bool]] = None,
) -> np.ndarray:
    """Stable argsort by multiple keys (see :func:`sort_segments`); the first
    column is the primary key. One :func:`stable_order` over the segments:
    where they are one integer segment with at most one descent — a re-sort
    extending the previous keys, two sorted runs back to back — the sort is
    a linear merge, otherwise one packed sort."""
    if not columns:
        raise ValueError("lexsort_indices requires at least one key column")
    return stable_order(sort_segments(columns, descending))
