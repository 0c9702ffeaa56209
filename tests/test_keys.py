"""Unit + property tests for multi-column key encoding (repro.storage.keys)."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.naive import _null_safe_sort
from repro.lolepop.merge_op import merge_two_sorted
from repro.storage import Batch, Column, TupleBuffer, keys
from repro.types import DataType, Schema


def int_col(values):
    return Column.from_values(DataType.INT64, values)


def str_col(values):
    return Column.from_values(DataType.STRING, values)


def float_col(values):
    return Column.from_values(DataType.FLOAT64, values)


class TestGroupCodes:
    def test_single_column(self):
        codes, reps, n = keys.group_codes([int_col([5, 7, 5, 9])])
        assert n == 3
        assert codes[0] == codes[2]
        assert len(set(codes.tolist())) == 3
        # Representatives point at rows whose value defines the group.
        values = [5, 7, 5, 9]
        groups = {values[r] for r in reps}
        assert groups == {5, 7, 9}

    def test_null_equals_null(self):
        codes, _, n = keys.group_codes([int_col([1, None, None, 1])])
        assert n == 2
        assert codes[1] == codes[2]
        assert codes[0] == codes[3]

    def test_null_distinct_from_zero(self):
        codes, _, n = keys.group_codes([int_col([0, None])])
        assert n == 2

    def test_multi_column(self):
        codes, _, n = keys.group_codes(
            [int_col([1, 1, 2, 2]), str_col(["a", "b", "a", "a"])]
        )
        assert n == 3
        assert codes[2] == codes[3]

    def test_empty_input(self):
        codes, reps, n = keys.group_codes([int_col([])])
        assert n == 0 and len(codes) == 0

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            keys.group_codes([])

    def test_float_negative_zero(self):
        col = Column.from_values(DataType.FLOAT64, [0.0, -0.0])
        _, _, n = keys.group_codes([col])
        assert n == 1


def _python_grouping(rows):
    """Expected ``(codes, first-occurrence representatives)`` of composite
    keys: groups in lexicographic order, NULL before any value."""
    order_key = lambda row: tuple((v is not None, v) for v in row)  # noqa: E731
    distinct = sorted(set(rows), key=order_key)
    code_of = {row: code for code, row in enumerate(distinct)}
    return [code_of[row] for row in rows], [rows.index(row) for row in distinct]


class TestCompositeKeys:
    """Composite keys pack into one mixed-radix int64 when their ranges
    allow and fall back to a lexsort otherwise; both number groups in
    lexicographic key order."""

    INTS = [3, -7, None, 3, 1000, -7, None, 0]
    STRS = ["b", None, "a", "b", "", "a", "a", None]
    WIDE = [2**62, -(2**62), None, 2**62, 5, -(2**62), 7, 2**62 - 1]

    def _check(self, columns, rows):
        codes, reps, n = keys.group_codes(columns)
        expected_codes, expected_reps = _python_grouping(rows)
        assert codes.tolist() == expected_codes
        assert reps.tolist() == expected_reps
        assert n == len(expected_reps)

    def test_packed_ints_strings_and_nulls(self):
        columns = [int_col(self.INTS), str_col(self.STRS), int_col(self.INTS[::-1])]
        assert keys.fit_keys(columns) is not None
        self._check(columns, list(zip(self.INTS, self.STRS, self.INTS[::-1])))

    def test_overflow_falls_back_to_lexsort(self):
        columns = [int_col(self.WIDE), int_col(self.WIDE[::-1]), str_col(self.STRS)]
        assert keys.fit_keys(columns) is None
        self._check(columns, list(zip(self.WIDE, self.WIDE[::-1], self.STRS)))

    def test_single_wide_column_still_packs(self):
        assert keys.fit_keys([int_col([2**62, 0, 5])]) is not None
        self._check([int_col([2**62, 0, 5, 0])], [(2**62,), (0,), (5,), (0,)])

    def test_narrow_ranges_use_a_direct_table_and_all_paths_agree(self, monkeypatch):
        rng = np.random.default_rng(0)
        data = [
            [int(v) for v in rng.integers(-5, 5, 300)],
            [["x", "y", None, "zz"][v] for v in rng.integers(0, 4, 300)],
            [bool(v) for v in rng.integers(0, 2, 300)],
        ]
        columns = [
            int_col(data[0]), str_col(data[1]), Column.from_values(DataType.BOOL, data[2]),
        ]
        _, capacity = keys.fit_keys(columns)
        assert capacity < 300  # fewer possible keys than rows: no sort needed
        self._check(columns, list(zip(*data)))
        packed = keys.group_codes(columns)
        monkeypatch.setattr(keys, "fit_keys", lambda columns: None)
        fallback = keys.group_codes(columns)
        assert packed[2] == fallback[2]
        assert np.array_equal(packed[0], fallback[0])
        assert np.array_equal(packed[1], fallback[1])

    def test_no_void_records(self, monkeypatch):
        """Neither path builds an ``np.void`` view of stacked keys."""
        monkeypatch.setattr(
            np, "column_stack", lambda *a, **k: pytest.fail("column_stack called")
        )
        keys.group_codes([int_col(self.INTS), str_col(self.STRS)])
        keys.group_codes([int_col(self.WIDE), int_col(self.WIDE)])


class TestFitEncode:
    """``fit_keys`` takes a key space from one set of columns; ``encode_keys``
    maps any columns into it. What the space does not hold is digit zero."""

    #: ``group_codes`` of the parent commit (before fit/encode existed).
    RECORDED = {
        "packed": ([4, 1, 0, 5, 6, 2, 0, 3], [2, 1, 5, 7, 0, 3, 4], 7),
        "sparse": ([4, 1, 0, 4, 5, 2, 0, 3], [2, 1, 5, 7, 0, 4], 6),
        "wide": ([7, 2, 0, 6, 3, 1, 4, 5], [2, 5, 1, 4, 6, 7, 3, 0], 8),
        "float": ([6, 3, 0, 4, 2, 5, 7, 1], [2, 7, 4, 1, 3, 5, 0, 6], 8),
    }

    def test_group_codes_unchanged_from_the_parent(self):
        ints, strs, wide = (getattr(TestCompositeKeys, n) for n in ("INTS", "STRS", "WIDE"))
        floats = [0.5, -0.0, None, 0.0, -2.25, 0.5, float("inf"), -2.25]
        cases = {
            "packed": [int_col(ints), str_col(strs), int_col(ints[::-1])],
            "sparse": [int_col([v if v is None else v * 1000 for v in ints]), str_col(strs)],
            "wide": [int_col(wide), int_col(wide[::-1]), str_col(strs)],
            "float": [Column.from_values(DataType.FLOAT64, floats), int_col(ints)],
        }
        for name, columns in cases.items():
            codes, reps, n = keys.group_codes(columns)
            assert (codes.tolist(), reps.tolist(), n) == self.RECORDED[name], name
            assert codes.dtype == reps.dtype == np.int64

    def test_what_the_space_lacks_is_no_match_never_a_digit(self):
        build = [int_col([10, 12, None, 14]), str_col(["x", "y", "x", None])]
        space = keys.fit_keys(build)
        packed, matchable = keys.encode_keys(space, build)
        assert matchable.tolist() == [True, True, False, False]
        probe = [
            int_col([10, 9, 15, None, 14, 12, 2**63 - 1, -(2**63)]),
            str_col(["x", "x", "y", "y", "q", "y", "x", "x"]),
        ]
        got, matchable = keys.encode_keys(space, probe)
        assert matchable.tolist() == [True, False, False, False, False, True, False, False]
        assert got[0] == packed[0] and got[5] == packed[1]
        # Every other row carries a zero digit, which no build key has.
        radix = space[0][1][1]
        zero_digit = (got // radix == 0) | (got % radix == 0)
        assert zero_digit.tolist() == (~matchable).tolist()
        assert not set(got[~matchable].tolist()) & set(packed[:2].tolist())

    def test_int64_extremes_do_not_wrap_into_the_range(self):
        space = keys.fit_keys([int_col([2**63 - 3, 2**63 - 1])])
        _, matchable = keys.encode_keys(
            space, [int_col([-(2**63), -(2**63) + 2, 2**63 - 2, 2**63 - 1])]
        )
        assert matchable.tolist() == [False, False, True, True]

    def test_numbers_compare_by_value_across_types(self):
        floats = Column.from_values(
            DataType.FLOAT64, [1.0, 2.5, -0.0, float("nan"), float("inf"), 2.0**63, None]
        )
        ints = int_col([1, 2, 0, None])
        packed, _ = keys.encode_keys(keys.fit_keys([ints]), [ints])
        got, matchable = keys.encode_keys(keys.fit_keys([ints]), [floats])
        assert matchable.tolist() == [True, False, True, False, False, False, False]
        assert got[0] == packed[0] and got[2] == packed[2]
        space = keys.fit_keys([floats])
        packed, _ = keys.encode_keys(space, [floats])
        got, matchable = keys.encode_keys(space, [ints])
        assert matchable.tolist() == [True, True, True, False]  # 2.0 is in range
        assert got[0] == packed[0] and got[2] == packed[2]
        assert got[1] not in packed.tolist()
        # A NaN probe matches nothing, a NaN among the fitted keys included.
        _, matchable = keys.encode_keys(space, [floats.copy()])
        assert matchable.tolist() == [True, True, True, False, True, True, False]

    def test_capacity_bound_picks_packed_or_fallback(self):
        # One column: capacity = high - low + 2.
        assert keys.fit_keys([int_col([0, 2**63 - 3])])[1] == 2**63 - 1
        assert keys.fit_keys([int_col([0, 2**63 - 2])]) is None
        columns = [int_col([0, 2**63 - 2, 0, 5])]
        codes, reps, n = keys.group_codes(columns)  # the lexsort fallback
        assert (codes.tolist(), reps.tolist(), n) == ([0, 2, 0, 1], [0, 3, 1], 3)


class TestHashing:
    def test_deterministic(self):
        col = str_col(["x", "y", "x"])
        h1 = keys.hash_codes([col])
        h2 = keys.hash_codes([str_col(["x", "y", "x"])])
        assert np.array_equal(h1, h2)

    def test_stable_across_batches(self):
        """The regression behind the two-phase merge bug: equal string keys
        must hash identically regardless of which other values share the
        batch."""
        a = keys.hash_codes([str_col(["HIGH", "LOW"])])
        b = keys.hash_codes([str_col(["LOW", "MED", "HIGH"])])
        assert a[0] == b[2]
        assert a[1] == b[0]

    def test_partition_ids_in_range(self):
        ids = keys.partition_ids([int_col(list(range(100)))], 8)
        assert ids.min() >= 0 and ids.max() < 8

    def test_equal_keys_same_partition(self):
        ids = keys.partition_ids([int_col([3, 3, 3])], 16)
        assert len(set(ids.tolist())) == 1



_N = 100_000
_RNG = np.random.default_rng(2024)
_SEQ = np.arange(_N, dtype=np.int64)
_NAMES = [f"customer#{k:09d}" for k in _RNG.integers(0, 50_000, _N).tolist()]

def _family(*columns, key=None):
    """``(columns, same)``: ``same`` numbers each row's key densely, so it
    is equal exactly where the composite key is."""
    values = columns[0].to_pylist() if key is None else key
    return list(columns), np.unique(values, return_inverse=True)[1]


#: Key families a scatter meets, ``_N`` rows each.
HASH_FAMILIES = {
    "sequential": _family(Column(DataType.INT64, _SEQ)),
    "stride_64": _family(Column(DataType.INT64, _SEQ * 64)),
    "stride_4096": _family(Column(DataType.INT64, _SEQ * 4096)),
    "shifted_32": _family(Column(DataType.INT64, _SEQ << 32)),
    "uniform_1000": _family(Column(DataType.INT64, _RNG.integers(0, 1_000, _N))),
    "decimal_2": _family(Column(DataType.FLOAT64, np.round(_RNG.uniform(0, 10_000, _N), 2))),
    "whole_floats": _family(
        Column(DataType.FLOAT64, _RNG.integers(0, 10_000, _N).astype(np.float64))
    ),
    "strings": _family(str_col(_NAMES)),
    "composite": _family(
        Column(DataType.INT64, _SEQ // 300), Column(DataType.INT64, _SEQ % 300), key=_SEQ
    ),
}


class TestHashQuality:
    """The scatter hash is one multiply per key column, picked by
    multiply-shift: partitions stay within 1.2x of the mean size on the key
    families a scatter meets, and a key's partition depends on its value
    alone."""

    @pytest.mark.parametrize("count", [8, 13, 64])
    @pytest.mark.parametrize("family", sorted(HASH_FAMILIES))
    def test_partitions_are_even(self, family, count):
        columns, same = HASH_FAMILIES[family]
        ids = keys.partition_ids(columns, count)
        sizes = np.bincount(ids, minlength=count)
        assert len(sizes) == count
        assert sizes.max() / sizes.mean() <= 1.2
        # Equal keys, equal partitions: one partition per key.
        first = np.full(same.max() + 1, -1)
        first[same] = ids
        assert np.array_equal(first[same], ids)

    @pytest.mark.parametrize("count", [8, 13, 64])
    def test_a_string_hashes_alike_in_any_dictionary(self, count):
        # The same strings in reverse order: a dictionary numbered the
        # other way round.
        backwards = str_col(_NAMES[::-1])
        assert not np.array_equal(backwards.data[::-1], HASH_FAMILIES["strings"][0][0].data)
        assert np.array_equal(
            keys.partition_ids([backwards], count)[::-1],
            keys.partition_ids(HASH_FAMILIES["strings"][0], count),
        )

    @pytest.mark.parametrize("rows", [0, 1])
    @pytest.mark.parametrize("family", ["sequential", "decimal_2", "strings", "composite"])
    def test_tiny_columns(self, family, rows):
        """The wrapping multiply over 0 and 1 rows: no scalar arithmetic
        (which would warn on overflow), ids in range."""
        columns = [
            Column(c.dtype, c.data[:rows], None, c.dictionary)
            for c in HASH_FAMILIES[family][0]
        ]
        for count in (8, 13, 64):
            ids = keys.partition_ids(columns, count)
            assert ids.dtype == np.int64 and len(ids) == rows
            assert ((0 <= ids) & (ids < count)).all()
        assert len(keys.table_slots(columns, 4096)) == rows

class TestLexsort:
    def test_multi_key(self):
        order = keys.lexsort_indices(
            [int_col([1, 1, 0]), int_col([5, 3, 9])]
        )
        assert list(order) == [2, 1, 0]

    def test_descending_key(self):
        order = keys.lexsort_indices([int_col([1, 3, 2])], [True])
        assert list(order) == [1, 2, 0]

    def test_nulls_last_both_directions(self):
        col = int_col([2, None, 1])
        assert list(keys.lexsort_indices([col], [False])) == [2, 0, 1]
        assert list(keys.lexsort_indices([col], [True])) == [0, 2, 1]

    def test_stability(self):
        order = keys.lexsort_indices([int_col([1, 1, 1])])
        assert list(order) == [0, 1, 2]

    def test_nulls_sort_last_ascending(self):
        order = keys.lexsort_indices([int_col([2, None, 1])])
        assert list(order) == [2, 0, 1]

    def test_nulls_sort_last_descending(self):
        order = keys.lexsort_indices([int_col([2, None, 3])], [True])
        assert list(order) == [2, 0, 1]

    def test_string_rank_keys(self):
        order = keys.lexsort_indices([str_col(["pear", "apple", "fig"])])
        assert list(order) == [1, 2, 0]

    def test_bool_keys(self):
        col = Column.from_values(DataType.BOOL, [True, False])
        assert list(keys.lexsort_indices([col])) == [1, 0]
        assert list(keys.lexsort_indices([col, int_col([1, 2])], [True, False])) == [0, 1]

    def test_nullable_int64_above_two_to_the_53(self):
        col = int_col([2**53 + 1, 2**53, None])
        assert list(keys.lexsort_indices([col])) == [1, 0, 2]
        assert list(keys.lexsort_indices([col], [True])) == [0, 1, 2]

    def test_descending_int64_min(self):
        col = int_col([-(2**63), 0, 5])
        assert list(keys.lexsort_indices([col], [True])) == [2, 1, 0]
        # Wider than one digit with a NULL, and next to a second key.
        wide = int_col([-(2**63), None, 2**63 - 1, -(2**63)])
        tie = int_col([1, 0, 0, 0])
        assert list(keys.lexsort_indices([wide, tie], [True, False])) == [2, 3, 0, 1]
        assert list(keys.lexsort_indices([wide, tie], [False, True])) == [0, 3, 2, 1]

    def test_infinity_does_not_tie_with_null(self):
        asc = float_col([None, float("inf"), 1.0])
        assert list(keys.lexsort_indices([asc])) == [2, 1, 0]
        desc = float_col([None, float("-inf"), 1.0])
        assert list(keys.lexsort_indices([desc], [True])) == [2, 1, 0]

    def test_all_null_keys_leave_the_order_to_the_next_key(self):
        later = int_col([3, 1, 2])
        for nulls in (int_col([None] * 3), float_col([None] * 3), str_col([None] * 3)):
            for desc in (False, True):
                assert list(keys.lexsort_indices([nulls], [desc])) == [0, 1, 2]
                assert list(keys.lexsort_indices([nulls, later], [desc, False])) == [1, 2, 0]

    def test_descending_keys_with_nulls(self):
        a = int_col([1, None, 2, 1, None, 2])
        b = float_col([0.5, 1.5, None, None, 2.5, 0.25])
        assert list(keys.lexsort_indices([a, b], [True, True])) == [5, 2, 0, 3, 4, 1]
        assert list(keys.lexsort_indices([a, b], [True, False])) == [5, 2, 0, 3, 1, 4]
        assert list(keys.lexsort_indices([b, a], [True, False])) == [4, 1, 0, 5, 3, 2]

    def test_negative_zero_ties_with_zero(self):
        col = float_col([0.0, -0.0, -0.0, 0.0, -1.0])
        assert list(keys.lexsort_indices([col])) == [4, 0, 1, 2, 3]
        assert list(keys.lexsort_indices([col], [True])) == [0, 1, 2, 3, 4]

    def test_nan_sorts_after_every_number_and_before_null(self):
        col = float_col([float("nan"), 1.0, None, float("inf"), float("-inf")])
        assert list(keys.lexsort_indices([col])) == [4, 1, 3, 0, 2]
        assert list(keys.lexsort_indices([col], [True])) == [3, 1, 4, 0, 2]

    def test_a_segment_holds_63_bits(self):
        """Two digits of radix a and b share one int64 while a * b < 2**63."""
        for a, b, segments in (
            (153092023, 60247241209, 1),  # a * b == 2**63 - 1
            (2**31, 2**32, 2),  # a * b == 2**63
        ):
            columns = [int_col([0, a - 1, a - 1, 0]), int_col([b - 1, 0, b - 1, 0])]
            for descending in ([False, False], [True, False], [True, True]):
                got = keys.sort_segments(columns, descending)
                assert len(got) == segments and all(s.dtype == np.int64 for s in got)
            assert list(keys.lexsort_indices(columns)) == [3, 0, 1, 2]
            assert list(keys.lexsort_indices(columns, [True, False])) == [1, 2, 3, 0]

    def test_fewest_segments(self):
        ints, strs = int_col([3, None, 1]), str_col(["b", "a", None])
        floats = float_col([0.5, None, 1.5])
        assert len(keys.sort_segments([ints, strs, ints], [True, False, True])) == 1
        # A float is a segment of its own; its NULL flag rides in the packed
        # segment before it.
        assert len(keys.sort_segments([ints, floats])) == 2
        assert len(keys.sort_segments([floats, ints, strs])) == 3
        # A NOT NULL ascending column with nothing to pack with is itself.
        lone = int_col([5, 2**63 - 1, -(2**63)])
        assert keys.sort_segments([lone])[0] is lone.data


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-50, 50), st.none()), min_size=1, max_size=60
    )
)
def test_group_codes_match_python_grouping(values):
    """Property: dense codes partition rows exactly like a Python dict."""
    codes, _, n = keys.group_codes([int_col(values)])
    by_code = {}
    for value, code in zip(values, codes.tolist()):
        by_code.setdefault(code, set()).add(value)
    # every code maps to exactly one distinct value
    assert all(len(s) == 1 for s in by_code.values())
    assert len(by_code) == n == len(set(values))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=80),
    st.integers(2, 16),
)
def test_partitioning_is_value_deterministic(values, parts):
    """Property: the partition of a row depends only on its key value."""
    ids = keys.partition_ids([int_col(values)], parts)
    seen = {}
    for value, pid in zip(values, ids.tolist()):
        assert seen.setdefault(value, pid) == pid


_KEY_VALUES = {
    DataType.INT64: st.one_of(
        st.integers(-3, 3),
        st.sampled_from([-(2**63), -(2**63) + 1, 2**53, 2**53 + 1, 2**63 - 1]),
    ),
    DataType.FLOAT64: st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -1.5, float("inf"), float("-inf"), float("nan")]),
        st.floats(allow_nan=False),
    ),
    DataType.STRING: st.sampled_from(["", "a", "b", "ab", "B", "Zürich", "z"]),
    DataType.BOOL: st.booleans(),
}


@st.composite
def sort_cases(draw):
    """1-4 key columns of mixed types with NULLs and ties, a direction each."""
    rows = draw(st.integers(1, 40))
    dtypes = draw(st.lists(st.sampled_from(list(_KEY_VALUES)), min_size=1, max_size=4))
    data = [
        draw(st.lists(st.one_of(st.none(), _KEY_VALUES[d]), min_size=rows, max_size=rows))
        for d in dtypes
    ]
    descending = [draw(st.booleans()) for _ in dtypes]
    return dtypes, data, descending


@settings(max_examples=150, deadline=None)
@given(sort_cases(), st.data())
def test_every_sort_path_orders_like_the_row_oracle(case, data):
    """``lexsort_indices``, a re-sort over a sorted prefix in either buffer
    mode and the two-way merge all produce the stable NULLS LAST order of
    the naive engine's ``_null_safe_sort``."""
    dtypes, values, descending = case
    names = [f"c{i}" for i in range(len(dtypes))]
    order_by = list(zip(names, descending))
    schema = Schema.of(*((n, d.value) for n, d in zip(names, dtypes)), ("row", "int64"))
    rows = [
        dict(zip(names, row), row=i) for i, row in enumerate(zip(*values))
    ]

    def batch_of(some_rows):
        return Batch.from_pydict(
            schema, {name: [r[name] for r in some_rows] for name in names + ["row"]}
        )

    expected = [r["row"] for r in _null_safe_sort(rows, order_by)]
    batch = batch_of(rows)
    columns = [batch.column(name) for name in names]
    assert keys.lexsort_indices(columns, descending).tolist() == expected

    # Rows already sorted on a prefix of the keys: the re-sort equals the
    # fresh sort whichever mode either sort runs in.
    prefix = data.draw(st.integers(1, len(names)))
    for first in ("sort_inplace", "sort_permutation"):
        for second in ("sort_inplace", "sort_permutation"):
            partition = TupleBuffer(schema, 1).partitions[0]
            partition.append(batch)
            getattr(partition, first)(names[:prefix], descending[:prefix])
            getattr(partition, second)(names, descending)
            assert partition.ordered_batch().column("row").to_pylist() == expected

    # Two sorted runs whose strings were encoded apart merge into the stable
    # sort of their concatenation.
    cut = data.draw(st.integers(0, len(rows)))
    runs = [_null_safe_sort(part, order_by) for part in (rows[:cut], rows[cut:])]
    merged = merge_two_sorted(batch_of(runs[0]), batch_of(runs[1]), order_by)
    assert merged.column("row").to_pylist() == [
        r["row"] for r in _null_safe_sort(runs[0] + runs[1], order_by)
    ]
