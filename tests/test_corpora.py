"""Tests for the benchmark workload corpora (repro.bench.corpora).

Every corpus query must byte-match (canonicalized: sorted rows, floats
rounded) the naive row engine's reference answer in serial *and* parallel
mode under ``verify_plans="strict"`` — the property that lets a benchmark
run double as a differential correctness run. The sensor
family must actually spill under its edge profile, otherwise the "edge"
configuration tests nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.corpora import (
    CORPORA,
    SENSOR_EDGE_CORPUS,
    STAR_DS_CORPUS,
    TPCH_CORPUS,
    canonical_rows,
    get_corpus,
    reference_answers,
    verify_query,
)
from repro.bench.corpora.sensor import EDGE_PROFILE, generate_sensor
from repro.bench.corpora.star import generate_star

SCALE = 0.002  # floor sizes: ~500 sales rows, ~1000 sensor readings


# ----------------------------------------------------------------------
# Registry and generator determinism
# ----------------------------------------------------------------------
class TestRegistry:
    def test_three_families_registered(self):
        assert set(CORPORA) == {"tpch", "star_ds", "sensor_edge"}

    def test_get_corpus_unknown(self):
        with pytest.raises(KeyError, match="unknown corpus"):
            get_corpus("nope")

    def test_tpch_family_wraps_paper_queries(self):
        names = set(TPCH_CORPUS.queries)
        assert "t2_sum_group" in names
        assert "t3_q01" in names and "t3_q18" in names
        assert len(names) == 4 + 18

    def test_tpch_window_queries_carry_tie_breakers(self):
        """The corpus variants of the paper's window queries must be
        totally ordered — date-only OVER orderings leave lead/lag/cumsum
        tie-order-ambiguous, and the naive reference would then not be
        the unique right answer."""
        for name in ("t2_row_number", "t3_q13", "t3_q14", "t3_q15", "t3_q18"):
            sql = TPCH_CORPUS.queries[name]
            assert "l_orderkey" in sql, f"{name} window ordering not total"

    def test_edge_profile_sets_memory_budget(self):
        assert SENSOR_EDGE_CORPUS.engine_profile["memory_budget_bytes"] > 0
        config = SENSOR_EDGE_CORPUS.config(num_threads=2)
        assert config.memory_budget_bytes == EDGE_PROFILE["memory_budget_bytes"]
        assert config.num_threads == 2


class TestGenerators:
    def test_star_deterministic(self):
        a = generate_star(SCALE, seed=7)
        b = generate_star(SCALE, seed=7)
        for table in a:
            for col in a[table]:
                assert np.array_equal(a[table][col], b[table][col]), (
                    f"{table}.{col} differs across identical seeds"
                )

    def test_star_seed_changes_data(self):
        a = generate_star(SCALE, seed=7)
        b = generate_star(SCALE, seed=8)
        assert not np.array_equal(
            a["sales"]["s_quantity"], b["sales"]["s_quantity"]
        )

    def test_star_referential_integrity(self):
        data = generate_star(SCALE, seed=7)
        assert set(data["sales"]["s_store_id"]) <= set(
            data["store"]["st_store_id"]
        )
        assert set(data["sales"]["s_product_id"]) <= set(
            data["product"]["p_product_id"]
        )
        assert set(data["sales"]["s_date_id"]) <= set(
            data["date_dim"]["d_date_id"]
        )

    def test_sensor_deterministic(self):
        a = generate_sensor(SCALE, seed=13)
        b = generate_sensor(SCALE, seed=13)
        for col in a["readings"]:
            assert np.array_equal(a["readings"][col], b["readings"][col])

    def test_sensor_ticks_unique_and_increasing_per_device(self):
        data = generate_sensor(SCALE, seed=13)
        device = data["readings"]["r_device"]
        tick = data["readings"]["r_tick"]
        for d in np.unique(device):
            ticks = tick[device == d]
            assert np.all(np.diff(ticks) > 0), f"device {d} ticks not strict"


# ----------------------------------------------------------------------
# Differential correctness: every query, serial + parallel, strict verify
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def star_db():
    return STAR_DS_CORPUS.build_database(scale_factor=SCALE)


@pytest.fixture(scope="module")
def star_refs(star_db):
    return reference_answers(star_db, STAR_DS_CORPUS)


@pytest.fixture(scope="module")
def sensor_db():
    return SENSOR_EDGE_CORPUS.build_database(scale_factor=SCALE)


@pytest.fixture(scope="module")
def sensor_refs(sensor_db):
    return reference_answers(sensor_db, SENSOR_EDGE_CORPUS)


@pytest.mark.parametrize("name", sorted(STAR_DS_CORPUS.queries))
def test_star_ds_query_matches_naive(star_db, star_refs, name):
    ok, problems = verify_query(
        star_db, STAR_DS_CORPUS, name, star_refs[name], threads=4,
        verify_plans="strict",
    )
    assert ok, problems


@pytest.mark.parametrize("name", sorted(SENSOR_EDGE_CORPUS.queries))
def test_sensor_query_matches_naive_under_edge_profile(
    sensor_db, sensor_refs, name
):
    ok, problems = verify_query(
        sensor_db, SENSOR_EDGE_CORPUS, name, sensor_refs[name], threads=4,
        verify_plans="strict",
    )
    assert ok, problems


def test_sensor_edge_profile_actually_spills():
    """The edge profile exists to force spilling; prove it does at the
    family's default benchmark scale (the module-level SCALE is small
    enough to fit the 64 KiB budget, so use the corpus default here).
    ``se9_site_windows``' input alone exceeds the budget there. (The other
    statements' inputs fit; their window columns do not, but no reader
    after the chain needs those, so the chain releases the partitions that
    outgrow their share instead of spilling them.)"""
    db = SENSOR_EDGE_CORPUS.build_database()
    config = SENSOR_EDGE_CORPUS.config(verify_plans="strict")
    result = db.sql(
        SENSOR_EDGE_CORPUS.queries["se9_site_windows"], config=config
    )
    assert result.spill["events"] > 0
    assert result.spill["bytes_written"] > 0


def test_canonical_rows_orders_and_rounds():
    rows = [(2.0000000004, "b"), (1.0, "a"), (None, "z")]
    assert canonical_rows(rows) == [(1.0, "a"), (2.0, "b"), (None, "z")]


def test_verify_query_reports_mismatch(star_db):
    """A wrong reference must be detected, not silently accepted — the
    self-verification path is only trustworthy if it can fail."""
    ok, problems = verify_query(
        star_db, STAR_DS_CORPUS, "ds9_median_of_store_totals",
        [("bogus",)], threads=2,
    )
    assert not ok
    assert any("diverges" in p for p in problems)
