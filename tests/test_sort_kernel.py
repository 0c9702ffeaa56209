"""The one sort kernel, :func:`repro.storage.keys.stable_order`, and the one
scatter, :func:`repro.storage.buffer.scatter_rows`.

``stable_order(segments)`` must return exactly ``np.lexsort(segments[::-1])``
whichever of its three branches answers — the adaptive stable sort of a
nearly-sorted integer segment, the packed ``(key, row id)`` sort, or the
lexsort fallback for keys too wide to pack. The packed branch rests on
unique keys, not on which quicksort numpy dispatches, so this module also
runs with numpy's SIMD sorts disabled (``NPY_DISABLE_CPU_FEATURES``).
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.relational.hash_join import HashJoinTable
from repro.storage import Batch, Column, keys
from repro.storage.buffer import scatter_rows
from repro.types import DataType, Field, Schema

I64 = np.iinfo(np.int64)
NAN, INF = math.nan, math.inf
#: 0, 1 and 2 rows, and 2^k ± 1 up to past the split threshold.
ROW_COUNTS = [0, 1, 2, 3] + [
    count for k in (3, 5, 7, 10, 12, 13) for count in (2**k - 1, 2**k, 2**k + 1)
]
SPECIAL_FLOATS = np.array([math.nan, -0.0, 0.0, math.inf, -math.inf, 1.5, -2.5])
EXTREME_INTS = np.array([I64.min, I64.min + 1, -1, 0, 1, I64.max - 1, I64.max])


def make_segment(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "dup_int":  # many duplicates
        return rng.integers(-3, 4, n)
    if kind == "extreme_int":
        return rng.choice(EXTREME_INTS, n)
    if kind == "wide_int":
        return rng.integers(I64.min, I64.max, n, endpoint=True)
    if kind == "special_float":
        return rng.choice(SPECIAL_FLOATS, n)
    if kind == "distinct_float":
        return rng.permutation(n) + rng.random(n) * 0.5
    if kind.startswith("decimal"):  # exact to the kind's number of places
        return rng.integers(-(10**6), 10**6, n) / keys.DECIMAL_SCALES[int(kind[-1])]
    if kind == "late_rows":  # whole numbers, then a sample of LATE_ROWS
        values = rng.integers(-5, 6, n).astype(np.float64)
        values[64:] = rng.choice(LATE_ROWS, max(n - 64, 0))
        return values
    return (rng.random(n) * 4).round()  # "dup_float"


#: Rows past a whole-number sample: some move the scale (0.5, 0.3), some fit
#: any (-0.0), the rest none (0.1 + 0.2 is not 0.3; NaN, ±inf, 1e308).
LATE_ROWS = np.array([0.5, 0.1 + 0.2, 0.3, math.nan, math.inf, -math.inf, -0.0, 1e308])
KINDS = [
    "dup_int", "extreme_int", "wide_int", "special_float", "distinct_float", "dup_float",
    "late_rows", *(f"decimal{places}" for places in range(len(keys.DECIMAL_SCALES))),
]


def arrange(segments, layout: str, rng: np.random.Generator):
    """Reorder the rows: as drawn, sorted, two sorted runs back to back, or
    reversed."""
    n = len(segments[0])
    if layout == "random" or n < 2:
        return segments
    if layout == "two_runs":
        cut = int(rng.integers(1, n))
        head = np.lexsort([s[:cut] for s in segments[::-1]])
        order = np.concatenate([head, cut + np.lexsort([s[cut:] for s in segments[::-1]])])
    else:
        order = np.lexsort(segments[::-1])
        if layout == "reversed":
            order = order[::-1]
    return [segment[order] for segment in segments]


@st.composite
def segment_lists(draw):
    n = draw(st.sampled_from(ROW_COUNTS))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = [make_segment(kind, n, rng) for kind in kinds]
    layout = draw(st.sampled_from(["random", "sorted", "two_runs", "reversed"]))
    return arrange(segments, layout, rng)


def _overflowing():
    """Four segments of distinct values over 2^13 + 1 rows: the ranks'
    capacity (~2^52) times 2^14 row ids reaches 2^63."""
    rng = np.random.default_rng(5)
    return [make_segment("distinct_float", 2**13 + 1, rng) for _ in range(4)]


#: Digits that would round together under a float64 subtraction of the
#: minimum: 2^54 - 3 and 2^54 - 5 are not float64s.
NEAR_2_53 = np.array([2.0**53 - 1, -(2.0**53 - 2), 2.0**53 - 3])


def _wide_decimal_first():
    """Whole floats 2^52 apart, then an int of range 2^8, then four floats
    no scale fits, over 4 rows: the decimal digit and the offset fill the
    2^61 the row ids leave, so the segments only pack with every float ranked."""
    return [
        np.array([0.0, 2.0**52, 0.0, 2.0**52]),
        np.array([0, 255, 3, 7]),
        np.array([1 / 3, 2 / 3, 1 / 7, 0.1 + 0.2]),
    ]


@pytest.fixture
def branches(monkeypatch):
    """Counts which branch each ``stable_order`` call took and which digit
    each float segment got, and checks that every fallback is one the
    floats' dense ranks alone take too: a decimal digit never costs a pack."""
    seen: Counter = Counter()
    packed_keys, decimal_digits, dense_rank = (
        keys._packed_keys, keys._decimal_digits, keys._dense_rank
    )

    def spy(segments, limit):
        packed = packed_keys(segments, limit)
        seen["packed" if packed is not None else "fallback"] += 1
        if packed is None:
            with pytest.MonkeyPatch.context() as ranked:
                ranked.setattr(keys, "_decimal_digits", lambda segment, most: None)
                assert packed_keys(segments, limit) is None
        return packed

    def spy_decimal(segment, max_radix):
        found = decimal_digits(segment, max_radix)
        seen["decimal"] += found is not None
        return found

    def spy_rank(segment):
        seen["rank"] += segment.dtype.kind == "f"
        return dense_rank(segment)

    monkeypatch.setattr(keys, "_packed_keys", spy)
    monkeypatch.setattr(keys, "_decimal_digits", spy_decimal)
    monkeypatch.setattr(keys, "_dense_rank", spy_rank)
    return seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stable_order_is_lexsort(branches):
    @settings(max_examples=400, deadline=None)
    @given(segment_lists())
    @example([np.sort(np.random.default_rng(1).integers(0, 50, 1025))])
    @example([np.arange(2**10 + 1)[::-1].copy()])
    @example(_overflowing())
    @example([NEAR_2_53])
    @example([NEAR_2_53[:2]])
    @example([np.array([1e308, 1.5, -1e308, 1e308])])
    @example([np.append(np.zeros(64), [INF, -INF])])  # round-trips, past 2^53
    @example([np.array([0.1 + 0.2, 0.3, 0.1 + 0.2, 0.3])])
    @example(_wide_decimal_first())
    def prop(segments):
        before = branches["packed"] + branches["fallback"]
        order = keys.stable_order(segments)
        if len(segments[0]) > 1 and branches["packed"] + branches["fallback"] == before:
            branches["adaptive"] += 1
        expected = np.lexsort(segments[::-1])
        assert order.dtype == expected.dtype
        np.testing.assert_array_equal(order, expected)

    prop()
    assert {"adaptive", "packed", "fallback", "decimal", "rank"} <= set(branches)


@pytest.mark.parametrize("places", range(len(keys.DECIMAL_SCALES)))
def test_decimals_take_the_first_scale_that_fits(places):
    rng = np.random.default_rng(places)
    values = rng.integers(-(10**6), 10**6, 100) / keys.DECIMAL_SCALES[places]
    values[:2] = 1 / keys.DECIMAL_SCALES[places], -0.0  # at least ``places`` places
    digits, radix = keys._decimal_digits(values, 2**62)
    scaled = np.rint(values * keys.DECIMAL_SCALES[places]).astype(np.int64)
    np.testing.assert_array_equal(digits, scaled - scaled.min())
    assert radix == scaled.max() - scaled.min() + 1


def test_rows_past_the_sample_move_the_scale():
    values = np.append(np.arange(64.0), [0.5, -1.25])  # whole, then 2 places
    digits, radix = keys._decimal_digits(values, 2**62)
    np.testing.assert_array_equal(digits, (values * 100).astype(np.int64) + 125)
    assert radix == 6300 + 125 + 1


@settings(max_examples=150, deadline=None)
@given(segment_lists(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_lexsort_indices_is_the_lexsort_of_its_segments(segments, descending):
    columns = [
        Column(DataType.FLOAT64 if s.dtype.kind == "f" else DataType.INT64, s)
        for s in segments
    ]
    descending = descending[: len(columns)]
    expected = np.lexsort(keys.sort_segments(columns, descending)[::-1])
    np.testing.assert_array_equal(keys.lexsort_indices(columns, descending), expected)


TOP = 2**63 - 1


# Codes and representatives as the lexsort-based grouping numbered them:
# every case is too wide to pack, so it takes group_codes' sort fallback.
@pytest.mark.parametrize(
    "columns, codes, representatives",
    [
        (
            [[2**62, -(2**62), 5, 2**62, None, -(2**62), 5, None]],
            [3, 1, 2, 3, 0, 1, 2, 0],
            [4, 1, 2, 0],
        ),
        (
            [[TOP, -TOP - 1, 0, TOP, -TOP, -1, -TOP - 1, None]],
            [5, 1, 4, 5, 2, 3, 1, 0],
            [7, 1, 4, 5, 2, 0],
        ),
        (
            [[1.5, NAN, -0.0, 0.0, INF, -INF, NAN, 1.5, None, -2.0]],
            [4, 6, 3, 3, 5, 2, 6, 4, 0, 1],
            [8, 9, 5, 2, 0, 4, 1],
        ),
        (
            [
                [1.5, -0.0, 1.5, 0.0, NAN, NAN, None, 1.5],
                [2**62, 7, 2**62, 7, -(2**62), -(2**62), 7, -(2**62)],
            ],
            [3, 1, 3, 1, 4, 4, 0, 2],
            [6, 1, 7, 0, 4],
        ),
        (
            [[3, 3, 1, 1, None, 3, None], [0.5, -0.5, NAN, NAN, 0.5, -0.0, 0.0]],
            [5, 3, 2, 2, 1, 4, 0],
            [6, 4, 2, 1, 5, 0],
        ),
    ],
    ids=["wide_int", "int64_extremes", "floats", "float_then_wide_int", "int_then_float"],
)
def test_group_codes_unchanged_on_wide_and_float_keys(columns, codes, representatives):
    columns = [
        Column.from_values(
            DataType.FLOAT64 if any(isinstance(v, float) for v in values) else DataType.INT64,
            values,
        )
        for values in columns
    ]
    assert keys.fit_keys(columns) is None
    got_codes, got_representatives, num_groups = keys.group_codes(columns)
    assert got_codes.tolist() == codes
    assert got_representatives.tolist() == representatives
    assert num_groups == len(representatives)


@st.composite
def wide_packed_spaces(draw):
    """1-3 nullable int key columns whose packed space holds more than
    ``DIRECT_TABLE_FACTOR`` slots per row: the sorted numbering's domain."""
    n = draw(st.sampled_from([0, 1, 2, 3, 64, 1000, 2**13 + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        spread = draw(st.sampled_from([3, 2**8, 2**20]))
        data = rng.integers(-spread, spread, n) + int(rng.integers(-(2**40), 2**40))
        valid = rng.random(n) < 0.9 if draw(st.booleans()) else None
        columns.append(Column(DataType.INT64, data, valid))
    space = keys.fit_keys(columns)
    assume(space is not None and space[1] > keys.DIRECT_TABLE_FACTOR * n)
    return columns, space


@settings(max_examples=150, deadline=None)
@given(wide_packed_spaces())
def test_sorted_numbering_is_np_unique(case):
    """``group_codes`` and the ``sorted`` join table number a wide packed
    space exactly as ``np.unique`` does: codes, first rows, distinct keys."""
    columns, space = case
    packed, matchable = keys.encode_keys(space, columns)
    uniques, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    codes, representatives, num_groups = keys.group_codes(columns)
    np.testing.assert_array_equal(codes, inverse.reshape(-1))
    np.testing.assert_array_equal(representatives, first)
    assert num_groups == len(uniques)

    names = [f"k{i}" for i in range(len(columns))]
    build = Batch(Schema([Field(name, DataType.INT64) for name in names]), columns)
    table = HashJoinTable(build, names)
    assert table.form == "sorted"
    matched = packed if matchable is None else packed[matchable]
    uniques = np.unique(matched)
    np.testing.assert_array_equal(table._uniques[:-1], uniques)
    slots = np.searchsorted(uniques, packed)
    if matchable is not None:
        slots[~matchable] = len(uniques)
    np.testing.assert_array_equal(table._slots(build, names), slots)


def _int64_scatter(batch, key_names, count):
    """The scatter as it was: one stable argsort over int64 partition ids."""
    ids = keys.partition_ids([batch.column(name) for name in key_names], count)
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(count + 1))
    return [
        (pid, batch.take(order[bounds[pid] : bounds[pid + 1]]))
        for pid in range(count)
        if bounds[pid] < bounds[pid + 1]
    ]


@pytest.mark.parametrize("count", [2, 13, 64, 2**16, 2**16 + 1])
def test_scatter_rows_matches_the_int64_argsort(count):
    rng = np.random.default_rng(count)
    n = 150_000
    schema = Schema([Field("k", DataType.INT64), Field("x", DataType.FLOAT64)])
    batch = Batch(
        schema,
        [
            Column(DataType.INT64, rng.integers(0, 10**9, n)),
            Column(DataType.FLOAT64, rng.random(n)),
        ],
    )
    ids = keys.partition_ids([batch.column("k")], count)
    if count > 2**16:  # ids past uint16: the path that is not narrowed
        assert ids.max() >= 2**16
    pieces = scatter_rows(batch, ["k"], count)
    expected = _int64_scatter(batch, ["k"], count)
    assert [pid for pid, _ in pieces] == [pid for pid, _ in expected]
    for (_, piece), (_, want) in zip(pieces, expected):
        for name in ("k", "x"):
            assert piece.column(name).data.tobytes() == want.column(name).data.tobytes()


def test_scatter_rows_of_an_empty_batch():
    schema = Schema([Field("k", DataType.INT64)])
    assert scatter_rows(Batch.empty(schema), ["k"], 13) == []
