"""Tests for the FILTER (WHERE ...) clause and the mode() aggregate."""

import numpy as np
import pytest

from repro import Database
from repro.errors import BindError, NotSupportedError

from tests.helpers import assert_engines_agree


@pytest.fixture
def db():
    database = Database(num_threads=2)
    database.create_table("t", {"g": "int64", "x": "int64", "s": "string"})
    database.insert(
        "t",
        {
            "g": [1, 1, 1, 1, 2, 2, 2],
            "x": [1, 1, 2, 9, 5, 5, None],
            "s": ["a", "a", "b", "b", "c", "c", "c"],
        },
    )
    return database


class TestFilterClause:
    def test_count_star_filter(self, db):
        rows = sorted(
            db.sql(
                "SELECT g, count(*) FILTER (WHERE x > 1) AS c FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, 2), (2, 2)]

    def test_sum_filter(self, db):
        rows = sorted(
            db.sql(
                "SELECT g, sum(x) FILTER (WHERE s = 'b') AS s1, sum(x) AS s2 "
                "FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, 11, 13), (2, None, 10)]

    def test_filter_with_distinct(self, db):
        rows = sorted(
            db.sql(
                "SELECT g, count(DISTINCT x) FILTER (WHERE x < 9) AS c "
                "FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, 2), (2, 1)]

    def test_filter_on_percentile(self, db):
        rows = sorted(
            db.sql(
                "SELECT g, percentile_disc(0.5) WITHIN GROUP (ORDER BY x) "
                "FILTER (WHERE x < 9) AS p FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, 1), (2, 5)]

    def test_filter_on_composed_ordered_set(self, db):
        """A composed call that takes its value WITHIN GROUP filters it:
        g = 1 keeps x in (2, 9), whose median absolute deviation is 3.5."""
        rows = sorted(
            db.sql(
                "SELECT g, mad() WITHIN GROUP (ORDER BY x) FILTER (WHERE x > 1) "
                "AS m FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, pytest.approx(3.5)), (2, pytest.approx(0.0))]

    def test_filter_on_avg_decomposes(self, db):
        rows = sorted(
            db.sql(
                "SELECT g, avg(x) FILTER (WHERE x <= 2) AS a FROM t GROUP BY g"
            ).rows()
        )
        assert rows[0] == (1, pytest.approx(4 / 3))

    def test_engines_agree(self, db):
        assert_engines_agree(
            db,
            "SELECT g, count(*) FILTER (WHERE s <> 'a') AS c, "
            "max(x) FILTER (WHERE x < 9) AS m FROM t GROUP BY g",
        )

    @pytest.mark.parametrize("engine", ["lolepop", "naive"])
    @pytest.mark.parametrize("call", [
        "count(*) FILTER (WHERE x > 1)",
        "sum(x) FILTER (WHERE s = 'b')",
        "count(DISTINCT x) FILTER (WHERE x < 9)",
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY x) FILTER (WHERE x > 1)",
        "avg(x) FILTER (WHERE x <= 2)",
        "mode() WITHIN GROUP (ORDER BY x) FILTER (WHERE x > 1)",
    ])
    def test_window_equals_group_by(self, db, call, engine):
        """Each call above, OVER (PARTITION BY g), is its GROUP BY value for
        the row's g: FILTER binds alike with and without OVER. Window calls
        take no DISTINCT, so that form is refused instead."""
        grouped = dict(db.sql(f"SELECT g, {call} FROM t GROUP BY g", engine=engine).rows())
        window = f"SELECT g, {call} OVER (PARTITION BY g) FROM t"
        if "DISTINCT" in call:
            with pytest.raises(NotSupportedError, match="DISTINCT"):
                db.sql(window, engine=engine)
            return
        rows = db.sql(window, engine=engine).rows()
        assert len(rows) == 7
        assert [value for _, value in rows] == pytest.approx([grouped[g] for g, _ in rows])

    @pytest.mark.parametrize("call", [
        "lag(x) FILTER (WHERE x > 1) OVER (ORDER BY x)",
        "first_value(x) FILTER (WHERE x > 1) OVER (PARTITION BY g)",
        "abs(x) FILTER (WHERE x > 1)",
    ])
    def test_filter_needs_an_aggregate(self, db, call):
        """A FILTER no aggregate consumes is refused, not ignored."""
        with pytest.raises(NotSupportedError, match="FILTER"):
            db.plan(f"SELECT {call} FROM t")


class TestMode:
    def test_basic_mode(self, db):
        rows = sorted(
            db.sql(
                "SELECT g, mode() WITHIN GROUP (ORDER BY x) AS m FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, 1), (2, 5)]

    def test_mode_tie_takes_first_in_order(self, db):
        # g=1 strings: a,a,b,b — tie; ascending order picks 'a'.
        rows = sorted(
            db.sql(
                "SELECT g, mode() WITHIN GROUP (ORDER BY s) AS m FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, "a"), (2, "c")]

    def test_mode_tie_descending(self, db):
        rows = sorted(
            db.sql(
                "SELECT g, mode() WITHIN GROUP (ORDER BY s DESC) AS m "
                "FROM t GROUP BY g"
            ).rows()
        )
        assert rows == [(1, "b"), (2, "c")]

    def test_mode_requires_within_group(self, db):
        with pytest.raises(BindError):
            db.plan("SELECT mode() FROM t GROUP BY g")

    def test_mode_plan_uses_ordagg(self, db):
        text = db.explain_lolepop(
            "SELECT g, mode() WITHIN GROUP (ORDER BY x) FROM t GROUP BY g"
        )
        assert "ORDAGG" in text and "mode" in text

    def test_mode_with_plain_aggregates(self, db):
        assert_engines_agree(
            db,
            "SELECT g, mode() WITHIN GROUP (ORDER BY x) AS m, sum(x), count(*) "
            "FROM t GROUP BY g",
        )

    def test_mode_all_null_group(self, db):
        db.insert("t", {"g": [3], "x": [None], "s": ["z"]})
        rows = dict(
            db.sql(
                "SELECT g, mode() WITHIN GROUP (ORDER BY x) AS m FROM t GROUP BY g"
            ).rows()
        )
        assert rows[3] is None

    def test_mode_engines_agree_random(self):
        rng = np.random.default_rng(8)
        database = Database(num_threads=2)
        database.create_table("r", {"g": "int64", "v": "int64"})
        database.insert(
            "r",
            {
                "g": [int(x) for x in rng.integers(0, 4, 200)],
                "v": [int(x) for x in rng.integers(0, 6, 200)],
            },
        )
        assert_engines_agree(
            database,
            "SELECT g, mode() WITHIN GROUP (ORDER BY v) AS m FROM r GROUP BY g",
        )
