"""Tests for RANGE frames (peer-aware) and IN (subquery) support."""

import pytest

from repro import Database
from repro.errors import BindError, NotSupportedError

from tests.helpers import assert_engines_agree


@pytest.fixture
def db():
    database = Database(num_threads=2)
    database.create_table("t", {"g": "int64", "o": "int64", "x": "int64"})
    # Deliberate ties in the order key `o`.
    database.insert(
        "t",
        {
            "g": [1, 1, 1, 1, 2, 2, 2],
            "o": [10, 10, 20, 30, 5, 5, 5],
            "x": [1, 2, 4, 8, 16, 32, 64],
        },
    )
    database.create_table("allowed", {"v": "int64"})
    database.insert("allowed", {"v": [1, 2]})
    return database


class TestRangeFrames:
    def test_default_frame_includes_peers(self, db):
        """SQL default frame is RANGE: tied order keys share the running
        sum — deterministic even under ties."""
        rows = db.sql(
            "SELECT g, o, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS s FROM t"
        ).rows()
        by_g1 = sorted(
            [(o, x, s) for g, o, x, s in rows if g == 1]
        )
        # o=10 peers: both rows see 1+2=3; o=20 sees 7; o=30 sees 15.
        assert by_g1 == [(10, 1, 3), (10, 2, 3), (20, 4, 7), (30, 8, 15)]
        by_g2 = [(o, s) for g, o, x, s in rows if g == 2]
        assert all(s == 112 for _, s in by_g2)

    def test_explicit_range_frame(self, db):
        rows = db.sql(
            "SELECT g, o, count(*) OVER (PARTITION BY g ORDER BY o "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS c FROM t"
        ).rows()
        g1 = sorted((o, c) for g, o, c in rows if g == 1)
        assert g1 == [(10, 2), (10, 2), (20, 3), (30, 4)]

    def test_rows_frame_still_positional(self, db):
        rows = db.sql(
            "SELECT g, o, count(*) OVER (PARTITION BY g ORDER BY o, x "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS c FROM t"
        ).rows()
        g1 = sorted(c for g, o, c in rows if g == 1)
        assert g1 == [1, 2, 3, 4]

    def test_engines_agree_with_ties(self, db):
        assert_engines_agree(
            db,
            "SELECT g, o, x, sum(x) OVER (PARTITION BY g ORDER BY o) AS s, "
            "min(x) OVER (PARTITION BY g ORDER BY o) AS m FROM t",
        )

    def test_range_with_offsets_rejected(self, db):
        with pytest.raises(NotSupportedError):
            db.plan(
                "SELECT sum(x) OVER (ORDER BY o RANGE BETWEEN 1 PRECEDING "
                "AND CURRENT ROW) FROM t"
            )

    def test_last_value_range_sees_whole_peer_group(self, db):
        rows = db.sql(
            "SELECT g, o, x, last_value(x) OVER (PARTITION BY g ORDER BY o "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS lv FROM t"
        ).rows()
        g1 = sorted((o, x, lv) for g, o, x, lv in rows if g == 1)
        # Both o=10 rows see the last peer (x=2).
        assert g1[0][2] == 2 and g1[1][2] == 2


class TestInSubquery:
    def test_semi_join(self, db):
        rows = db.sql(
            "SELECT x FROM t WHERE x IN (SELECT v FROM allowed)"
        ).rows()
        assert sorted(r[0] for r in rows) == [1, 2]

    def test_anti_join(self, db):
        rows = db.sql(
            "SELECT x FROM t WHERE x NOT IN (SELECT v FROM allowed)"
        ).rows()
        assert sorted(r[0] for r in rows) == [4, 8, 16, 32, 64]

    def test_subquery_with_aggregation(self, db):
        rows = db.sql(
            "SELECT g, x FROM t WHERE g IN "
            "(SELECT g FROM t GROUP BY g HAVING count(*) > 3)"
        ).rows()
        assert {g for g, _ in rows} == {1}

    def test_engines_agree(self, db):
        assert_engines_agree(
            db, "SELECT g, sum(x) FROM t WHERE x IN (SELECT v FROM allowed) GROUP BY g"
        )

    def test_single_column_required(self, db):
        with pytest.raises(BindError):
            db.plan("SELECT x FROM t WHERE x IN (SELECT g, x FROM t)")

    def test_complex_operand_rejected(self, db):
        with pytest.raises(NotSupportedError):
            db.plan("SELECT x FROM t WHERE x + 1 IN (SELECT v FROM allowed)")


@pytest.fixture
def nulls_db():
    """``x NOT IN`` operands with and without a NULL on either side."""
    database = Database(num_threads=2)
    for name, values in (
        ("l", [1, 2, 3, None]), ("l0", [1, 2, 3]), ("s", [2, None]), ("s0", [2]),
    ):
        database.create_table(name, {"x": "int64"})
        database.insert(name, {"x": values})
    return database


#: ``(left, subquery, surviving x)`` under SQL's three-valued NOT IN: a NULL
#: in a non-empty subquery keeps no row, a NULL left operand survives only
#: an empty subquery.
NOT_IN_CASES = [
    ("l0", "SELECT x FROM s0", [1, 3]),  # NULLs on neither side
    ("l", "SELECT x FROM s0", [1, 3]),  # on the left
    ("l0", "SELECT x FROM s", []),  # on the right
    ("l", "SELECT x FROM s", []),  # on both sides
    ("l", "SELECT x FROM s WHERE x > 9", [1, 2, 3, None]),  # empty subquery
    ("l", "SELECT x FROM s WHERE x IS NOT NULL", [1, 3]),
]


@pytest.mark.parametrize("engine", ["lolepop", "monolithic", "columnar", "naive"])
@pytest.mark.parametrize("left, subquery, expected", NOT_IN_CASES)
def test_not_in_subquery_is_three_valued(nulls_db, engine, left, subquery, expected):
    rows = nulls_db.sql(
        f"SELECT x FROM {left} WHERE x NOT IN ({subquery})", engine=engine
    ).rows()
    assert sorted((x for (x,) in rows), key=lambda x: (x is None, x)) == expected

