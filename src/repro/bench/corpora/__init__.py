"""Self-verifying benchmark workload families ("corpora").

A :class:`Corpus` bundles a deterministic data generator, a named query
family, and the engine profile it is benchmarked under. Three families are
registered:

- ``tpch`` — the paper's TPC-H-lineitem evaluation queries (Tables 2/3);
- ``star_ds`` — decision-support: CTE-heavy, multi-block, grouping-set-
  lattice queries over a retail star schema (:mod:`.star`);
- ``sensor_edge`` — time-series: window-function-dominant queries over
  per-device sensor streams, run under a spill-heavy "edge" profile
  (:mod:`.sensor`).

Every query's reference answer is computed by the naive row engine (the
repo's independent oracle), so a benchmark run doubles as a differential
correctness test: :func:`verify_query` compares the LOLEPOP engine's
canonicalized rows against the reference in serial and parallel mode,
with the static plan verifier in ``strict`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ...api import Database
from ...execution.context import EngineConfig
from ..workloads import TABLE2_QUERIES, TABLE3_QUERIES
from .sensor import EDGE_PROFILE, SENSOR_QUERIES, generate_sensor, populate_sensor
from .star import DS_QUERIES, generate_star, populate_star


def _canon_value(v):
    # 9 significant digits first (summation-order error in a large-
    # magnitude sum/variance lives far below that), then 6 decimal
    # places (absolute noise floor for small magnitudes).
    if isinstance(v, float):
        return round(float(f"{v:.9g}"), 6)
    return v


def canonical_rows(result_or_rows) -> List[tuple]:
    """Engine-order-independent canonical form of a result: floats rounded
    to 9 significant digits then 6 decimal places, rows sorted with NULLs
    last. Two engines "byte-match" when their canonical forms are equal
    (float summation order and row order legitimately differ across
    engines/modes)."""
    rows = (
        result_or_rows.rows()
        if hasattr(result_or_rows, "rows")
        else result_or_rows
    )
    out = [tuple(_canon_value(v) for v in row) for row in rows]
    return sorted(
        out, key=lambda t: tuple((x is None, str(type(x)), str(x)) for x in t)
    )


@dataclass(frozen=True)
class Corpus:
    """One workload family: generator + queries + engine profile."""

    name: str
    description: str
    queries: Mapping[str, str]
    populate: Callable[..., None]  # populate(db, scale_factor, seed)
    default_scale: float = 0.01
    default_seed: int = 7
    #: EngineConfig keyword overrides applied to every benchmarked run of
    #: this family (e.g. the sensor family's spill-forcing edge profile).
    engine_profile: Mapping[str, Any] = field(default_factory=dict)

    def build_database(
        self,
        scale_factor: Optional[float] = None,
        seed: Optional[int] = None,
        reuse=None,
    ) -> Database:
        db = Database(reuse=reuse)
        self.populate(
            db,
            scale_factor if scale_factor is not None else self.default_scale,
            seed if seed is not None else self.default_seed,
        )
        return db

    def config(self, **overrides) -> EngineConfig:
        """An EngineConfig with this family's profile plus overrides."""
        kwargs = dict(self.engine_profile)
        kwargs.update(overrides)
        return EngineConfig(**kwargs)


def _populate_tpch(db, scale_factor: float, seed: int) -> None:
    from ...tpch import populate_database

    populate_database(db, scale_factor=scale_factor, seed=seed,
                      tables=["lineitem"])


# The paper's window queries order only by a date column, which is not
# unique within a supplier partition — lead/lag/cumsum values are then
# tie-order-ambiguous and two correct engines may legitimately disagree.
# The corpus variants append the (l_orderkey, l_linenumber) key as a
# tie-breaker so every window is totally ordered and the naive reference
# is the unique right answer; the benchmarked plan shape is unchanged.
_TPCH_DETERMINISTIC_OVERRIDES: Dict[str, str] = {
    "t2_row_number": (
        "SELECT row_number() OVER (PARTITION BY l_suppkey "
        "ORDER BY l_quantity, l_orderkey, l_linenumber) AS rn FROM lineitem"
    ),
    "t3_q13": (
        "SELECT lead(l_quantity) OVER (PARTITION BY l_suppkey "
        "ORDER BY l_receiptdate, l_orderkey, l_linenumber) AS w1, "
        "lag(l_quantity) OVER (PARTITION BY l_suppkey "
        "ORDER BY l_receiptdate, l_orderkey, l_linenumber) AS w2 "
        "FROM lineitem"
    ),
    "t3_q14": (
        "SELECT lead(l_quantity) OVER (PARTITION BY l_suppkey "
        "ORDER BY l_receiptdate, l_orderkey, l_linenumber) AS w1, "
        "lag(l_quantity) OVER (PARTITION BY l_suppkey "
        "ORDER BY l_receiptdate, l_orderkey, l_linenumber) AS w2, "
        "cumsum(l_quantity) OVER (PARTITION BY l_suppkey "
        "ORDER BY l_shipdate, l_orderkey, l_linenumber) AS w3 "
        "FROM lineitem"
    ),
    "t3_q15": (
        "SELECT cumsum(l_quantity) OVER (PARTITION BY l_linenumber "
        "ORDER BY l_shipdate, l_orderkey) AS w1 FROM lineitem"
    ),
    "t3_q18": (
        "SELECT l_suppkey, sum(power(lead(l_quantity) OVER "
        "(PARTITION BY l_suppkey "
        "ORDER BY l_receiptdate, l_orderkey, l_linenumber) "
        "- l_quantity, 2)) / count(*) AS mssd FROM lineitem "
        "GROUP BY l_suppkey"
    ),
}


def _tpch_queries() -> Dict[str, str]:
    queries = {f"t2_{name}": sql for name, sql in TABLE2_QUERIES.items()}
    queries.update({f"t3_q{n:02d}": sql for n, sql in TABLE3_QUERIES.items()})
    queries.update(_TPCH_DETERMINISTIC_OVERRIDES)
    return queries


TPCH_CORPUS = Corpus(
    name="tpch",
    description="The paper's Table 2/3 evaluation queries over TPC-H lineitem",
    queries=_tpch_queries(),
    populate=_populate_tpch,
    default_seed=42,
)

STAR_DS_CORPUS = Corpus(
    name="star_ds",
    description=(
        "Decision support: CTE-heavy, multi-block, GROUPING SETS/ROLLUP/"
        "CUBE-lattice queries over a seeded retail star schema"
    ),
    queries=DS_QUERIES,
    populate=populate_star,
    default_seed=7,
)

SENSOR_EDGE_CORPUS = Corpus(
    name="sensor_edge",
    description=(
        "Time series: window-function-dominant per-device sensor queries "
        "under a tight-memory, spill-heavy edge profile"
    ),
    queries=SENSOR_QUERIES,
    populate=populate_sensor,
    default_seed=13,
    engine_profile=EDGE_PROFILE,
)

#: Registry of every benchmark family.
CORPORA: Dict[str, Corpus] = {
    corpus.name: corpus
    for corpus in (TPCH_CORPUS, STAR_DS_CORPUS, SENSOR_EDGE_CORPUS)
}


def get_corpus(name: str) -> Corpus:
    if name not in CORPORA:
        raise KeyError(
            f"unknown corpus {name!r}; choose from {sorted(CORPORA)}"
        )
    return CORPORA[name]


def reference_answers(
    db: Database, corpus: Corpus, queries: Optional[Mapping[str, str]] = None
) -> Dict[str, List[tuple]]:
    """Canonicalized naive-row-engine answers for every corpus query."""
    out = {}
    for name, sql in (queries or corpus.queries).items():
        out[name] = canonical_rows(db.sql(sql, engine="naive"))
    return out


def verify_query(
    db: Database,
    corpus: Corpus,
    name: str,
    reference: List[tuple],
    threads: int = 4,
    verify_plans: str = "strict",
) -> Tuple[bool, List[str]]:
    """Run one corpus query in serial and parallel mode under the family's
    engine profile with strict plan verification; return (verified,
    mismatch descriptions)."""
    sql = corpus.queries[name]
    problems = []
    for mode, mode_threads in (("simulated", 1), ("parallel", threads)):
        config = corpus.config(
            execution_mode=mode,
            num_threads=mode_threads,
            verify_plans=verify_plans,
        )
        got = canonical_rows(db.sql(sql, config=config))
        if got != reference:
            problems.append(f"{corpus.name}/{name}: {mode} mode diverges "
                            f"from the naive reference")
    return not problems, problems


__all__ = [
    "CORPORA",
    "Corpus",
    "DS_QUERIES",
    "EDGE_PROFILE",
    "SENSOR_EDGE_CORPUS",
    "SENSOR_QUERIES",
    "STAR_DS_CORPUS",
    "TPCH_CORPUS",
    "canonical_rows",
    "generate_sensor",
    "generate_star",
    "get_corpus",
    "populate_sensor",
    "populate_star",
    "reference_answers",
    "verify_query",
]
