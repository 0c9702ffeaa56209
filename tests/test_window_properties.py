"""Property-based window-function tests: the vectorized WINDOW operator vs
the naive per-row oracle on random data, frames, and orderings."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database

from tests.helpers import assert_engines_agree

profile = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_db(rows):
    db = Database(num_threads=2)
    db.create_table("w", {"p": "int64", "o": "int64", "x": "int64"})
    db.insert(
        "w",
        {
            "p": [p for p, _, _ in rows],
            "o": [o for _, o, _ in rows],
            "x": [x for _, _, x in rows],
        },
    )
    return db


rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),                       # partition key
        st.integers(0, 5),                       # order key (ties likely)
        st.one_of(st.integers(-9, 9), st.none()),  # value with NULLs
    ),
    min_size=1,
    max_size=40,
)


@profile
@given(rows_strategy)
def test_ranking_functions_property(rows):
    db = build_db(rows)
    assert_engines_agree(
        db,
        "SELECT p, o, x, "
        "rank() OVER (PARTITION BY p ORDER BY o) AS rk, "
        "dense_rank() OVER (PARTITION BY p ORDER BY o) AS dr, "
        "cume_dist() OVER (PARTITION BY p ORDER BY o) AS cd "
        "FROM w",
        engines=["lolepop"],
    )


@profile
@given(rows_strategy, st.integers(1, 3), st.integers(0, 3))
def test_rows_frame_aggregate_property(rows, preceding, following):
    db = build_db(rows)
    assert_engines_agree(
        db,
        f"SELECT p, o, x, sum(x) OVER (PARTITION BY p ORDER BY o, x "
        f"ROWS BETWEEN {preceding} PRECEDING AND {following} FOLLOWING) AS s, "
        f"min(x) OVER (PARTITION BY p ORDER BY o, x "
        f"ROWS BETWEEN {preceding} PRECEDING AND {following} FOLLOWING) AS m "
        "FROM w",
        engines=["lolepop"],
    )


@profile
@given(rows_strategy)
def test_range_frame_property(rows):
    """Peer-aware RANGE frames agree with the oracle even under heavy ties."""
    db = build_db(rows)
    assert_engines_agree(
        db,
        "SELECT p, o, x, sum(x) OVER (PARTITION BY p ORDER BY o) AS s, "
        "count(*) OVER (PARTITION BY p ORDER BY o) AS c FROM w",
        engines=["lolepop"],
    )


@profile
@given(rows_strategy, st.integers(1, 4))
def test_navigation_property(rows, offset):
    db = build_db(rows)
    assert_engines_agree(
        db,
        f"SELECT p, o, x, lead(x, {offset}) OVER (PARTITION BY p ORDER BY o, x) AS ld, "
        f"lag(x, {offset}, -1) OVER (PARTITION BY p ORDER BY o, x) AS lg "
        "FROM w",
        engines=["lolepop"],
    )


@profile
@given(rows_strategy, st.integers(1, 5))
def test_ntile_property(rows, buckets):
    db = build_db(rows)
    result = db.sql(
        f"SELECT p, ntile({buckets}) OVER (PARTITION BY p ORDER BY o, x) AS t "
        "FROM w"
    )
    # Invariants: bucket sizes differ by at most one, numbered from 1.
    by_partition = {}
    for p, t in result.rows():
        by_partition.setdefault(p, []).append(t)
    for tiles in by_partition.values():
        counts = {}
        for tile in tiles:
            counts[tile] = counts.get(tile, 0) + 1
        assert min(counts) == 1
        assert max(counts) <= buckets
        assert max(counts.values()) - min(counts.values()) <= 1
        # Earlier buckets are never smaller than later ones.
        ordered = [counts[k] for k in sorted(counts)]
        assert ordered == sorted(ordered, reverse=True)


@profile
@given(rows_strategy)
def test_ordered_set_window_property(rows):
    db = build_db(rows)
    assert_engines_agree(
        db,
        "SELECT p, x, median(x) OVER (PARTITION BY p) AS med, "
        "percentile_disc(0.25) WITHIN GROUP (ORDER BY x) OVER (PARTITION BY p) AS q1, "
        "mode() WITHIN GROUP (ORDER BY x) OVER (PARTITION BY p) AS mo "
        "FROM w",
        engines=["lolepop"],
    )
