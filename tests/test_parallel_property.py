"""Property-based stress tests for parallel-mode determinism.

Generates ~50 random aggregate/window plans over random data with a seeded
``random.Random`` (no external property-testing dependency), runs each
three times under ``execution_mode="parallel"``, and asserts run-to-run
determinism: identical rows in identical order every time. Each plan is
also checked against the naive row engine so determinism never hides a
wrong-but-stable answer.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, EngineConfig

from tests.helpers import normalized_rows

# Partitions sized for a handful of rows, so the fuzzed plans' buffers are
# hash-scattered into many partitions and their merges are partitioned.
pytestmark = pytest.mark.usefixtures("tiny_partitions")

N_PLANS = 50
N_RUNS = 3
SEED = 2026


def _make_db(rng: random.Random, reuse=None) -> Database:
    # The plan cache is left on; distinct random plans re-translate anyway,
    # which is what lets the reuse sweep below consult the manager.
    db = Database(reuse=reuse)
    db.create_table(
        "t", {"g": "int64", "h": "int64", "x": "float64", "y": "float64"}
    )
    n = rng.randint(120, 220)
    db.insert(
        "t",
        {
            "g": [rng.randint(0, 5) for _ in range(n)],
            "h": [rng.randint(0, 3) for _ in range(n)],
            "x": [
                round(rng.random() * 100, 3) if rng.random() > 0.08 else None
                for _ in range(n)
            ],
            "y": [round(rng.gauss(0, 10), 3) for _ in range(n)],
        },
    )
    return db


_AGGS = [
    "sum({v})",
    "count(*)",
    "count({v})",
    "min({v})",
    "max({v})",
    "avg({v})",
    "median({v})",
    "count(DISTINCT {v})",
    "sum(DISTINCT {v})",
    "percentile_disc(0.5) WITHIN GROUP (ORDER BY {v})",
    "percentile_cont(0.25) WITHIN GROUP (ORDER BY {v})",
    "var_samp({v})",
    "stddev_pop({v})",
]

#: Deterministic window calls: the full ORDER BY g, h, x, y, rn-free
#: ordering below makes every function's answer unique.
_WINS = [
    "row_number() OVER (PARTITION BY {p} ORDER BY {o})",
    "rank() OVER (PARTITION BY {p} ORDER BY {o})",
    "dense_rank() OVER (PARTITION BY {p} ORDER BY {o})",
    "sum({v}) OVER (PARTITION BY {p} ORDER BY {o})",
    "min({v}) OVER (PARTITION BY {p} ORDER BY {o} "
    "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)",
    "lag({v}) OVER (PARTITION BY {p} ORDER BY {o})",
    "lead({v}, 2) OVER (PARTITION BY {p} ORDER BY {o})",
    "first_value({v}) OVER (PARTITION BY {p} ORDER BY {o})",
    "ntile(3) OVER (PARTITION BY {p} ORDER BY {o})",
    "cume_dist() OVER (PARTITION BY {p} ORDER BY {o})",
    "percent_rank() OVER (PARTITION BY {p} ORDER BY {o})",
    "nth_value({v}, 2) OVER (PARTITION BY {p} ORDER BY {o})",
    "max({v}) OVER (PARTITION BY {p} ORDER BY {o} "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)",
    "avg({v}) OVER (PARTITION BY {p} ORDER BY {o} "
    "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)",
]

#: Grouping-set lattice shapes over two keys ({a}, {b}): explicit GROUPING
#: SETS lists, ROLLUP, and CUBE — the reaggregation pipelines the plan
#: verifier's zero-false-positive sweep must stay silent on.
_GROUPING_SHAPES = [
    "GROUPING SETS (({a}, {b}), ({a}))",
    "GROUPING SETS (({a}, {b}), ({a}), ({b}))",
    "GROUPING SETS (({a}, {b}), ({a}), ({b}), ())",
    "GROUPING SETS (({a}), ())",
    "ROLLUP ({a}, {b})",
    "CUBE ({a}, {b})",
]


def _random_aggregate(rng: random.Random, filters: random.Random) -> str:
    keys = rng.choice([["g"], ["h"], ["g", "h"], []])
    n_aggs = rng.randint(1, 4)
    aggs = [
        rng.choice(_AGGS).format(v=rng.choice(["x", "y"]))
        for _ in range(n_aggs)
    ]
    select = [*keys, *(f"{a} AS a{i}" for i, a in enumerate(aggs))]
    sql = f"SELECT {', '.join(select)} FROM t"
    if filters.random() < 0.4:
        # A tight filter leaves a handful of rows, where §3.3's re-sort of
        # an ordered-set chain's buffer prices below the DISTINCT hash pair.
        sql += f" WHERE x < {filters.choice([2, 5, 60])}"
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
        if len(keys) == 2 and rng.random() < 0.45:
            shape = rng.choice(_GROUPING_SHAPES).format(a=keys[0], b=keys[1])
            sql = sql.replace(f"GROUP BY {', '.join(keys)}", f"GROUP BY {shape}")
        if rng.random() < 0.3:
            sql += " HAVING count(*) > 2"
        if rng.random() < 0.5:
            sql += f" ORDER BY {keys[0]}"
    return sql


def _random_window(rng: random.Random) -> str:
    part = rng.choice(["g", "h"])
    order = "x, y, g, h"  # total order over distinct-ish columns
    n_wins = rng.randint(1, 3)
    wins = [
        rng.choice(_WINS).format(p=part, v=rng.choice(["x", "y"]), o=order)
        for _ in range(n_wins)
    ]
    select = ["g", "h", "x", *(f"{w} AS w{i}" for i, w in enumerate(wins))]
    return f"SELECT {', '.join(select)} FROM t"


def _random_plan(rng: random.Random, filters: random.Random) -> str:
    if rng.random() < 0.4:
        return _random_window(rng)
    return _random_aggregate(rng, filters)


def _plans():
    # Filters draw from their own stream, so adding them left every other
    # choice of the corpus as it was.
    rng, filters = random.Random(SEED), random.Random(SEED + 1)
    return [(i, _random_plan(rng, filters)) for i in range(N_PLANS)]


@pytest.fixture(scope="module")
def prop_db():
    return _make_db(random.Random(SEED))


@pytest.mark.parametrize("case", _plans(), ids=lambda c: f"plan{c[0]}")
def test_parallel_runs_are_deterministic(prop_db, case):
    _, sql = case
    config = EngineConfig(
        num_threads=4, num_partitions=8, execution_mode="parallel"
    )
    runs = [prop_db.sql(sql, config=config).rows() for _ in range(N_RUNS)]
    for i, rows in enumerate(runs[1:], start=2):
        assert rows == runs[0], (
            f"parallel run {i} differs from run 1 on: {sql}"
        )
    # Stable is not enough — it must also be *right*.
    reference = normalized_rows(prop_db.sql(sql, engine="naive"))
    assert normalized_rows(runs[0]) == reference, f"wrong answer on: {sql}"


@pytest.fixture(scope="module")
def reuse_db():
    """Same seeded data, but with the materialization manager enabled and
    views building on first demand — successive random plans share the
    base-table fragment, so the sweep exercises cross-query buffer hits,
    view builds, and lattice re-aggregation."""
    from repro.reuse import ReuseConfig

    return _make_db(random.Random(SEED), reuse=ReuseConfig(view_min_uses=1))


@pytest.mark.parametrize("case", _plans(), ids=lambda c: f"plan{c[0]}")
def test_reuse_on_differential(reuse_db, case):
    """Reuse-on parallel mode under strict plan verification must match
    the naive reference on every fuzzed plan — cached-buffer and
    view-source substitutions included. Canonicalized with the corpus
    rounding (9 significant digits before 6 decimals): view
    re-aggregation legitimately re-associates float sums, and a last-ulp
    shift can straddle a bare round-to-6 midpoint."""
    from repro.bench.corpora import canonical_rows

    _, sql = case
    config = EngineConfig(
        num_threads=4,
        num_partitions=8,
        execution_mode="parallel",
        verify_plans="strict",
    )
    rows = canonical_rows(reuse_db.sql(sql, config=config))
    reference = canonical_rows(reuse_db.sql(sql, engine="naive"))
    assert rows == reference, f"wrong answer on: {sql}"


def test_reuse_sweep_exercised_the_manager(reuse_db):
    """The differential sweep is only meaningful if the manager actually
    served something during it."""
    stats = reuse_db.reuse.stats()
    assert stats["hits"] > 0
    assert stats["views"] + stats["buffers"] > 0


# ----------------------------------------------------------------------
# Span-tree invariants: every statement of the corpus writes one tree
# (statement → stage → node → region → item); what the views rely on
# holds of it under both schedulers, with and without a buffer budget.
# ----------------------------------------------------------------------
TREE_SCHEDULERS = {
    "simulated": {"execution_mode": "simulated", "num_threads": 4},
    "parallel4": {"execution_mode": "parallel", "num_threads": 4},
}
TREE_BUDGETS = {"unbudgeted": None, "1KiB": 1024}
#: Statement, stage and node spans tick on the wall clock, region and item
#: spans on the scheduler's; a `translate` stage sits where the translation
#: happened, which for a nested region is inside the SOURCE node.
_WALL = {"statement", "stage", "node"}
_MAY_HOLD = {
    "statement": _WALL - {"statement"},
    "stage": {"stage", "node", "region"},
    "node": {"stage", "node", "region"},
    "region": {"item"},
    "item": set(),
}
_EPS = 1e-9


@pytest.fixture()
def tree_db():
    from repro.observability.telemetry import Telemetry, TelemetryConfig

    db = _make_db(random.Random(SEED))
    db.telemetry = Telemetry(TelemetryConfig(enabled=True, slow_query_threshold_s=0.0))
    return db


def _check_tree(span, under_execute=False, under_node=False):
    """Walk the tree below ``span`` asserting the structural invariants;
    returns its item spans."""
    assert span.end is not None and span.end >= span.start, span.name
    under_execute = under_execute or (span.kind, span.name) == ("stage", "execute")
    items = []
    last_region = None
    for child in span.children:
        assert child.kind in _MAY_HOLD[span.kind], (span.kind, child.kind)
        if child.kind in _WALL or child.kind == "item":  # the parent's clock
            assert span.start - _EPS <= child.start and child.end <= span.end + _EPS
        if child.kind == "node":
            assert under_execute, "a node outside the execute stage"
        if child.kind == "region":
            assert span.kind == "node" or (under_execute and not under_node)
            assert child.attrs["items"] >= 1 and child.children
            if last_region is not None:  # barriers: siblings never overlap
                assert last_region.end <= child.start + _EPS
            last_region = child
        if child.kind == "item":
            assert child.attrs is span.attrs and not child.children
            items.append(child)
        items += _check_tree(child, under_execute, under_node or child.kind == "node")
    return items


@pytest.mark.parametrize("budget", sorted(TREE_BUDGETS))
@pytest.mark.parametrize("scheduler", sorted(TREE_SCHEDULERS))
def test_span_tree_invariants(tree_db, monkeypatch, tmp_path, scheduler, budget):
    from repro.bench.corpora import canonical_rows
    from repro.execution import scheduler as scheduler_module
    from repro.observability.chrome import chrome_trace_events
    from repro.observability.metrics import executed_nodes

    # A split item is scheduled as chunks that carry the modelled overhead
    # (SPLIT_OVERHEAD) on top of its measured time; with splitting off the
    # scheduled units are exactly the measured work.
    monkeypatch.setattr(scheduler_module, "SPLIT_QUANTUM", float("inf"))
    config = EngineConfig(
        num_partitions=8, collect_trace=True,
        memory_budget_bytes=TREE_BUDGETS[budget], spill_directory=str(tmp_path),
        **TREE_SCHEDULERS[scheduler],
    )
    untraced = config.clone(collect_trace=False)
    for number, sql in _plans():
        result = tree_db.sql(sql, config=config)
        record = tree_db.telemetry.slowlog.snapshot(last=1)[0]
        root = result.trace.root
        assert root.kind == "statement" and root.name == record["sql"], sql
        assert [s.name for s in root.children] == ["parse_bind", "execute"], sql
        items = _check_tree(root)
        assert items == result.trace.records and items, sql
        assert sum(i.duration for i in items) == pytest.approx(
            result.serial_time, rel=1e-9
        ), sql
        # Every DAG node's span is in the tree, and the tree has no other.
        assert sorted(map(id, root.walk("node"))) == sorted(
            id(node.span) for _, _, node in executed_nodes(result.dags)
        ), sql
        assert sum(s.duration for s in root.walk("stage") if s.name == "translate") == (
            pytest.approx(result.translate_s)
        ), sql
        # One id from the root to every view.
        query_id = root.attrs["query_id"]
        assert query_id == record["query_id"] and query_id.startswith("d"), sql
        events = chrome_trace_events(result.trace)
        assert {event["args"]["query_id"] for event in events} == {query_id}, sql
        if budget == "1KiB" and " OVER (" in sql:
            assert result.spill["bytes_written"] > 0, f"plan{number} did not spill"
        # Tracing takes its own path (traced chains, node spans, join
        # lines); the answer must not notice.
        assert canonical_rows(result) == canonical_rows(
            tree_db.sql(sql, config=untraced)
        ), sql


@pytest.mark.parametrize("scheduler", sorted(TREE_SCHEDULERS))
def test_a_failed_or_cancelled_statement_closes_every_span(tree_db, monkeypatch, scheduler):
    """Fail (and, separately, cancel) a statement on entry to its N-th
    region, for every N it has: the root handed to ``record_execution`` has
    no open span left below it."""
    from repro import QueryCancelled
    from repro.execution import CancellationToken
    from repro.execution.scheduler import RegionScheduler

    sql = next(sql for _, sql in _plans() if " OVER (" in sql)
    config = EngineConfig(
        num_partitions=8, collect_trace=True,
        **TREE_SCHEDULERS[scheduler],
    )
    run_region = RegionScheduler.run_region
    state = {"entered": 0, "fail_at": None, "cancel": False}

    def probed(scheduler, *args, **kwargs):
        state["entered"] += 1
        if state["entered"] == state["fail_at"]:
            if not state["cancel"]:
                raise RuntimeError("injected failure")
            scheduler.cancellation.cancel()
        return run_region(scheduler, *args, **kwargs)

    monkeypatch.setattr(RegionScheduler, "run_region", probed)
    tree_db.sql(sql, config=config)
    regions = state["entered"]
    # tablescan, partition, the chain and project: PARTITION compacts
    # nothing itself, the chain's items compact their partitions.
    assert regions >= 4
    recorded = []
    record_execution = tree_db.telemetry.record_execution
    monkeypatch.setattr(
        tree_db.telemetry, "record_execution",
        lambda root, *args: recorded.append(root) or record_execution(root, *args),
    )
    for cancel, error in ((False, RuntimeError), (True, QueryCancelled)):
        for fail_at in range(1, regions + 1):
            state.update(entered=0, fail_at=fail_at, cancel=cancel)
            with pytest.raises(error):
                tree_db.sql(sql, config=config.clone(cancellation=CancellationToken()))
            root = recorded[-1]
            assert len(recorded) == (regions if cancel else 0) + fail_at
            _check_tree(root)  # every span reachable from it is closed
            # (An empty region is entered but leaves no span.)
            assert len(list(root.walk("region"))) <= fail_at - 1
            status = tree_db.telemetry.slowlog.snapshot(last=1)[0]["status"]
            assert status == ("cancelled" if cancel else "error")


def test_a_template_clone_starts_with_no_span(tree_db):
    sql = next(sql for _, sql in _plans() if "GROUP BY" in sql)
    config = EngineConfig(collect_trace=True)
    first = tree_db.sql(sql, config=config)
    assert all(node.span is not None for dag in first.dags for node in dag.nodes)
    templates = tree_db.prepare(sql).dag_templates.values()
    assert templates
    for template in templates:
        assert all(node.span is None for node in template.nodes)
        assert all(node.span is None for node in template.clone().nodes)
    second = tree_db.sql(sql, config=config)
    spans = [node.span for dag in second.dags for node in dag.nodes]
    assert all(span is not None for span in spans)
    assert not {id(span) for span in spans} & {
        id(node.span) for dag in first.dags for node in dag.nodes
    }


def test_corpus_covers_windows_and_grouping_sets(prop_db):
    """The realized 50-plan corpus must exercise every shape family the
    verifier sweep claims to cover: plain aggregates, window functions
    (incl. framed ones), the grouping-set lattice (GROUPING SETS /
    ROLLUP / CUBE), and both of §3.3's DISTINCT lowerings, so the oracle
    differential above covers the priced re-sort as well as the hash
    pair."""
    corpus = [sql for _, sql in _plans()]
    resorted = kept_hash_pair = 0
    for sql in corpus:
        ordered_set = "WITHIN GROUP" in sql or "median" in sql
        if "DISTINCT" not in sql or not ordered_set:
            continue
        dags = prop_db.sql(sql).dags
        if any(e.pass_name == "cost_based_distinct" for d in dags for e in d.rewrites):
            resorted += 1
        elif any(d.operator_names().count("HASHAGG") >= 2 for d in dags):
            kept_hash_pair += 1
    assert resorted >= 1
    assert kept_hash_pair >= 1
    assert any(" OVER (" in sql for sql in corpus)
    assert any("ROWS BETWEEN" in sql for sql in corpus)
    assert any("GROUPING SETS" in sql for sql in corpus)
    assert any("ROLLUP" in sql or "CUBE" in sql for sql in corpus)
    assert any(
        "GROUP BY" in sql and "GROUPING SETS" not in sql
        and "ROLLUP" not in sql and "CUBE" not in sql
        for sql in corpus
    )


# ----------------------------------------------------------------------
# Ternary logic: for any predicate p, the rows of WHERE p, WHERE NOT p and
# WHERE (p) IS NULL partition the table, so the three filtered answers
# recombine into the unfiltered one — a relation the oracle cannot state,
# held on each engine over the fuzz table's NULL-bearing column x.
# ----------------------------------------------------------------------
_TERNARY_SELECT = "SELECT g, count(*), count(x), sum(x), min(x), max(x) FROM t"


def _recombined(answers):
    """Per group: the counts and sums of the parts add up, the extremes are
    the extremes of the parts; a part with no x (NULL) drops out."""
    parts = {}
    for rows in answers:
        for g, *values in rows:
            parts.setdefault(g, []).append(values)
    out = {}
    for g, values in parts.items():
        present = [[v[i] for v in values if v[i] is not None] for i in range(5)]
        out[g] = (
            sum(present[0]),
            sum(present[1]),
            round(sum(present[2]), 6) if present[2] else None,
            min(present[3], default=None),
            max(present[4], default=None),
        )
    return out


@pytest.mark.parametrize("engine", ["lolepop", "monolithic", "naive"])
@pytest.mark.parametrize("predicate", ["x < 40", "x BETWEEN 20 AND 60", "x = y"])
def test_p_not_p_and_p_is_null_partition_the_table(prop_db, engine, predicate):
    def answer(where=""):
        return prop_db.sql(f"{_TERNARY_SELECT}{where} GROUP BY g", engine=engine).rows()

    whole = _recombined([answer()])
    parts = [
        answer(f" WHERE {predicate}"),
        answer(f" WHERE NOT ({predicate})"),
        answer(f" WHERE ({predicate}) IS NULL"),
    ]
    assert sum(len(rows) for rows in parts) > len(whole)  # no part is the whole
    assert _recombined(parts) == whole
