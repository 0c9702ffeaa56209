"""Tests for the vectorized hash join."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import HashJoinTable
from repro.storage import Batch
from repro.types import Schema

LEFT = Schema.of(("k", "int64"), ("l", "string"))
RIGHT = Schema.of(("k", "int64"), ("r", "string"))


def left_batch(ks, ls):
    return Batch.from_pydict(LEFT, {"k": ks, "l": ls})


def right_batch(ks, rs):
    return Batch.from_pydict(RIGHT, {"k": ks, "r": rs})


class TestInnerJoin:
    def test_basic_match_expansion(self):
        table = HashJoinTable(right_batch([1, 2, 2], ["a", "b", "c"]), ["k"])
        out = table.probe(left_batch([2, 3, 1], ["x", "y", "z"]), ["k"])
        rows = sorted(out.rows())
        assert rows == [(1, "z", 1, "a"), (2, "x", 2, "b"), (2, "x", 2, "c")]

    def test_null_keys_never_match(self):
        table = HashJoinTable(right_batch([1, None], ["a", "b"]), ["k"])
        out = table.probe(left_batch([1, None], ["x", "y"]), ["k"])
        assert sorted(out.rows()) == [(1, "x", 1, "a")]

    def test_schema_rename_on_collision(self):
        table = HashJoinTable(right_batch([1], ["a"]), ["k"])
        out = table.probe(left_batch([1], ["x"]), ["k"])
        assert out.schema.names() == ["k", "l", "k_1", "r"]

    def test_empty_build(self):
        table = HashJoinTable(right_batch([], []), ["k"])
        out = table.probe(left_batch([1], ["x"]), ["k"])
        assert len(out) == 0


class TestLeftJoin:
    def test_unmatched_rows_padded(self):
        table = HashJoinTable(right_batch([1], ["a"]), ["k"])
        out = table.probe(left_batch([1, 9], ["x", "y"]), ["k"], left_outer=True)
        rows = sorted(out.rows(), key=lambda r: r[0])
        assert rows[0] == (1, "x", 1, "a")
        assert rows[1] == (9, "y", None, None)


class TestSemiMask:
    def test_mask(self):
        table = HashJoinTable(right_batch([1, 1, 3], ["a", "b", "c"]), ["k"])
        mask = table.semi_mask(left_batch([1, 2, 3], ["x", "y", "z"]), ["k"])
        assert list(mask) == [True, False, True]


class TestStringKeys:
    def test_cross_batch_string_keys(self):
        """Regression: string keys must compare across build/probe batches."""
        build = Batch.from_pydict(
            Schema.of(("s", "string"), ("v", "int64")),
            {"s": ["HIGH", "LOW"], "v": [1, 2]},
        )
        probe = Batch.from_pydict(
            Schema.of(("s", "string")), {"s": ["LOW", "MED", "HIGH"]}
        )
        table = HashJoinTable(build, ["s"])
        out = table.probe(probe, ["s"])
        assert sorted(out.rows()) == [
            ("HIGH", "HIGH", 1),
            ("LOW", "LOW", 2),
        ]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Build-side integer keys by shape; a probe also draws from OUTSIDE, below
#: and above every pool that leaves room there.
POOLS = {
    "dense": [0, 1, 2, 3, 4],  # capacity <= 2n: the direct table
    "negative": [-7, -3, 0, 2, 5],
    "sparse": [-(10**9), 0, 1000, 10**6, 10**12],  # capacity > 2n: sorted
    "extremes": [INT64_MIN, INT64_MAX, 0, -1, 2**62],  # range overflows: wide
}
OUTSIDE = [-(10**15), 10**15, -8, 6]
BUILD_STRINGS = ["a", "b", "", "zz"]
PROBE_STRINGS = BUILD_STRINGS + ["c", "A"]  # two the build dictionary lacks


def _nested_loop(kind, probe_rows, build_rows, num_keys):
    """The definition: probe order, then build order; NULL matches nothing."""
    out = []
    for p in probe_rows:
        matches = [
            b for b in build_rows if None not in p[:num_keys] and p[:num_keys] == b[:num_keys]
        ]
        if kind in ("semi", "anti"):
            if bool(matches) == (kind == "semi"):
                out.append(p)
            continue
        out.extend(p + b for b in matches)
        if kind == "left" and not matches:
            out.append(p + (None,) * len(p))
    return out


def _keyed(values):
    return st.lists(
        st.tuples(st.none() | st.integers(0, values - 1), st.none() | st.integers(0, 5)),
        max_size=24,
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(POOLS)), _keyed(5), _keyed(9), st.booleans(), st.booleans())
@example("dense", [(i, i) for i in range(5)], [(4, 0), (0, 1), (2, 5)], False, False)
@example("dense", [(i, i) for i in range(5)], [(4, 0), (None, 1), (7, 5)], False, False)
@example("sparse", [(1, 0), (4, 1), (1, 0)], [(1, 0), (6, 1), (4, 4), (3, None)], True, False)
@example("extremes", [(0, 0), (1, 1), (0, 0)], [(0, 0), (1, 1), (2, 0), (5, 3)], True, False)
@example("extremes", [(0, 0), (1, 1)], [(0, 0), (1, 1), (1, 1)], False, True)
@example("negative", [], [(1, 1), (None, None)], True, False)
@example("negative", [(1, 1), (None, 2)], [], True, False)
@example("dense", [(0, 0), (1, 1)], [(5, 0), (8, 1), (None, 0)], False, True)
def test_all_join_kinds_match_nested_loop(pool, build_picks, probe_picks, composite, dedupe):
    """Property: INNER / LEFT / SEMI / ANTI equal the nested-loop definition,
    row order included, on every table form and both N:1 and N:M builds."""
    strings = lambda picks, pool: [  # noqa: E731
        None if s is None else pool[s % len(pool)] for _, s in picks
    ]
    build_ints = [None if i is None else POOLS[pool][i] for i, _ in build_picks]
    probe_ints = [None if i is None else (POOLS[pool] + OUTSIDE)[i] for i, _ in probe_picks]
    build_rows = list(zip(build_ints, strings(build_picks, BUILD_STRINGS)))
    probe_rows = list(zip(probe_ints, strings(probe_picks, PROBE_STRINGS)))
    num_keys = 2 if composite else 1
    if dedupe:
        first = {row[:num_keys]: row for row in reversed(build_rows)}
        build_rows = [row for row in build_rows if first[row[:num_keys]] is row]
    build = right_batch(*zip(*build_rows)) if build_rows else right_batch([], [])
    probe = left_batch(*zip(*probe_rows)) if probe_rows else left_batch([], [])
    table = HashJoinTable(build, ["k", "r"][:num_keys])
    probe_keys = ["k", "l"][:num_keys]

    present = {row[0] for row in build_rows if None not in row[:num_keys]}
    if {INT64_MIN, INT64_MAX} <= present:
        assert table.form == "wide"
    elif pool == "dense" and len(present) >= 3 and not composite:
        assert table.form == "direct"
    elif pool == "sparse" and len(present) >= 2:
        assert table.form == "sorted"
    matchable = [row[:num_keys] for row in build_rows if None not in row[:num_keys]]
    assert table.num_keys == len(set(matchable))
    assert table.unique == (len(set(matchable)) == len(matchable))

    mask = table.semi_mask(probe, probe_keys)
    got = {
        "inner": table.probe(probe, probe_keys),
        "left": table.probe(probe, probe_keys, left_outer=True),
        "semi": probe.filter(mask),
        "anti": probe.filter(~mask),
    }
    for kind, batch in got.items():
        expected = _nested_loop(kind, probe_rows, build_rows, num_keys)
        assert list(batch.rows()) == expected, (kind, table.form, table.unique)
