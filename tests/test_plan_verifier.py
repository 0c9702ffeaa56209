"""Mutation tests for the static plan verifier.

Reuses the random-plan corpus of :mod:`tests.test_parallel_property`
(same seed, same generators) plus a small crafted corpus of multi-ordering
aggregates, and checks both directions of the verifier's contract:

* **Zero false positives** — every uncorrupted plan the translator and
  optimizer produce verifies clean, in serial and parallel mode.
* **100% catch rate** — four kinds of deliberate plan corruption (dropped
  anti-dependency edges, wrong sort keys, a spliced-out PARTITION, a
  COMBINE that lost its uniqueness keys) are each detected with the right
  diagnostic code on every plan the corruption structurally applies to.

Each corruption translates a *fresh* DAG (``Dag.clone`` shares parameter
lists, so mutating a clone would corrupt the original's operators too).
"""

from __future__ import annotations

import random

import pytest

from repro import Database, EngineConfig
from repro.errors import ExecutionError, PlanError, PlanVerificationError
from repro.lolepop import check_dag
from repro.lolepop.base import Dag, Lolepop, SourceOp, buffer_root
from repro.lolepop.combine_op import CombineOp
from repro.lolepop.engine import statistics_region
from repro.lolepop.hashagg_op import HashAggOp, HashAggTask
from repro.lolepop.merge_op import MergeOp
from repro.lolepop.ordagg_op import OrdAggOp
from repro.lolepop.partition_op import PartitionOp
from repro.lolepop.sort_op import SortOp
from repro.lolepop.translate import translate_statistics
from repro.lolepop.window_op import WindowOp
from repro.server.cache import PreparedPlan
from repro.tpch import TPCH_QUERIES

from tests.test_parallel_property import SEED, _make_db, _plans

#: Multi-ordering aggregates: each needs two sorts over one shared buffer,
#: so the translator emits anti-dependency (``after``) edges and a
#: COMBINE(join) over the per-ordering ORDAGGs — the shapes the drop-after
#: and combine-uniqueness corruptions need.
MULTI_ORDERING_PLANS = [
    "SELECT g, percentile_disc(0.5) WITHIN GROUP (ORDER BY x) AS p1, "
    "percentile_cont(0.25) WITHIN GROUP (ORDER BY y) AS p2 FROM t GROUP BY g",
    "SELECT g, median(x) AS m1, median(y) AS m2 FROM t GROUP BY g",
    "SELECT g, h, median(x) AS m1, median(y) AS m2 FROM t GROUP BY g, h",
    "SELECT h, percentile_disc(0.5) WITHIN GROUP (ORDER BY x) AS p1, "
    "median(y) AS m1, count(*) AS c FROM t GROUP BY h",
    "SELECT g, percentile_cont(0.75) WITHIN GROUP (ORDER BY y) AS p1, "
    "median(x) AS m1, sum(x) AS s FROM t GROUP BY g",
]


@pytest.fixture(scope="module")
def corpus_db() -> Database:
    return _make_db(random.Random(SEED))


def _config(parallel: bool, verify: str = "off") -> EngineConfig:
    extra = (
        dict(num_threads=4, num_partitions=8, execution_mode="parallel")
        if parallel
        else {}
    )
    return EngineConfig(verify_plans=verify, **extra)


def _translate(db: Database, sql: str, parallel: bool = True):
    """A fresh, unverified DAG for the query's top statistics region."""
    region = statistics_region(db.plan(sql))
    if region is None:
        return None
    return translate_statistics(region, lambda p: [], _config(parallel), db.estimator)


def _codes(dag):
    diagnostics, _ = check_dag(dag)
    return diagnostics, {d.code for d in diagnostics}


# ---------------------------------------------------------------------------
# Zero false positives: every generated plan verifies clean as translated.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("case", _plans(), ids=lambda c: f"plan{c[0]}")
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_uncorrupted_corpus_verifies_clean(corpus_db, case, parallel):
    dag = _translate(corpus_db, case[1], parallel)
    if dag is None:
        pytest.skip("no statistics region")
    diagnostics, _ = check_dag(dag, require_rebindable=True)
    assert not diagnostics, (
        f"false positive on: {case[1]}\n"
        + "\n".join(d.render({}) for d in diagnostics)
    )


@pytest.mark.parametrize("sql", MULTI_ORDERING_PLANS)
def test_uncorrupted_multi_ordering_verifies_clean(corpus_db, sql):
    for parallel in (False, True):
        diagnostics, _ = check_dag(_translate(corpus_db, sql, parallel))
        assert not diagnostics, [d.render({}) for d in diagnostics]


# ---------------------------------------------------------------------------
# Corruption 1: drop anti-dependency edges -> buffer-reuse race.
# ---------------------------------------------------------------------------
def _input_ancestors(dag):
    """Ancestor sets over *data edges only* (what remains once every
    ``after`` edge is stripped)."""
    ancestors = {}
    for node in dag.topological_order():
        deps = set()
        for dep in node.inputs:
            deps.add(id(dep))
            deps |= ancestors.get(id(dep), set())
        ancestors[id(node)] = deps
    return ancestors


def _race_would_open(dag) -> bool:
    """Structurally (without invoking the diagnostic engine): does some
    in-place mutator share a buffer with an affected consumer such that
    only ``after`` edges order the two?"""
    order = dag.topological_order()
    _, props = check_dag(dag)
    roots = {id(n): buffer_root(n) for n in order}
    ancestors = _input_ancestors(dag)

    def buffer_roots(node):
        return {
            id(roots[id(dep)])
            for dep in node.inputs
            if props[id(dep)].kind == "buffer" and roots.get(id(dep)) is not None
        }

    for mutator in order:
        effect = mutator.mutation_effect
        if effect is None:
            continue
        shared = buffer_roots(mutator)
        for consumer in order:
            if consumer is mutator or not (shared & buffer_roots(consumer)):
                continue
            affected = (
                consumer.order_sensitive()
                if effect == "order"
                else consumer.reads_full_schema()
            )
            if not affected:
                continue
            if (
                id(mutator) not in ancestors[id(consumer)]
                and id(consumer) not in ancestors[id(mutator)]
            ):
                return True
    return False


def test_dropped_after_edge_is_caught(corpus_db):
    applicable = 0
    for sql in MULTI_ORDERING_PLANS:
        dag = _translate(corpus_db, sql)
        if not any(node.after for node in dag.nodes):
            continue
        if not _race_would_open(dag):
            continue  # ordering also implied by data edges; dropping is safe
        applicable += 1
        for node in dag.nodes:
            node.after = []
        diagnostics, codes = _codes(dag)
        assert diagnostics, f"dropped after edges not caught on: {sql}"
        assert codes & {"race", "property"}, (sql, codes)
    assert applicable >= 4, f"only {applicable} plans exercised the race check"


# ---------------------------------------------------------------------------
# Corruption 2: wrong SORT keys -> downstream ordering requirement unmet.
# ---------------------------------------------------------------------------
def _corrupt_sort_keys(sort: SortOp) -> None:
    if len(sort.keys) >= 2:
        # Dropping the leading key breaks any group-prefix / exact-prefix
        # requirement downstream (permutation tolerance cannot save it).
        sort.keys = sort.keys[1:]
    else:
        name, desc = sort.keys[0]
        replacement = "g" if name.lower() != "g" else "h"
        sort.keys = [(replacement, desc)]


def test_corrupted_sort_keys_are_caught(corpus_db):
    applicable = 0
    for _, sql in _plans():
        dag = _translate(corpus_db, sql)
        if dag is None:
            continue
        target = next(
            (
                node
                for node in dag.topological_order()
                if isinstance(node, SortOp)
                and any(
                    node in consumer.inputs
                    for consumer in dag.nodes
                    if isinstance(consumer, (OrdAggOp, MergeOp, WindowOp))
                )
            ),
            None,
        )
        if target is None:
            continue
        applicable += 1
        _corrupt_sort_keys(target)
        diagnostics, codes = _codes(dag)
        assert "property" in codes, (
            f"corrupted sort keys not caught on: {sql}\n"
            + "\n".join(d.render({}) for d in diagnostics)
        )
    assert applicable >= 20, f"only {applicable} plans had a corruptible sort"


# ---------------------------------------------------------------------------
# Corruption 3: splice out a PARTITION -> kind mismatch (stream where a
# buffer is required).
# ---------------------------------------------------------------------------
def test_removed_partition_is_caught(corpus_db):
    applicable = 0
    for _, sql in _plans():
        dag = _translate(corpus_db, sql)
        if dag is None:
            continue
        target = next(
            (
                node
                for node in dag.topological_order()
                if isinstance(node, PartitionOp)
                and len(node.inputs) == 1
                and any(
                    node in consumer.inputs
                    and "stream" not in consumer.consumes
                    for consumer in dag.nodes
                )
            ),
            None,
        )
        if target is None:
            continue
        applicable += 1
        dag.replace(target, target.inputs[0])
        diagnostics, codes = _codes(dag)
        assert codes & {"kind-mismatch", "property"}, (
            f"spliced-out PARTITION not caught on: {sql}\n"
            + "\n".join(d.render({}) for d in diagnostics)
        )
    assert applicable >= 20, f"only {applicable} plans had a removable PARTITION"


def test_hashagg_over_a_buffer_is_caught():
    """HASHAGG consumes a stream (Table 1: stream → stream/buffer): a
    hand-built PARTITION → HASHAGG is a kind mismatch."""
    dag = Dag()
    source = dag.add(SourceOp(lambda: []))
    partition = dag.add(PartitionOp(source, ("k",), 4))
    hashagg = dag.add(
        HashAggOp(partition, ["k"], [HashAggTask("n", "count_star", None)], 4)
    )
    dag.set_sink(hashagg)
    diagnostics, codes = _codes(dag)
    assert codes == {"kind-mismatch"}
    assert [d.message for d in diagnostics] == [
        f"{hashagg.name()} consumes stream but its input produces a buffer"
    ]


# ---------------------------------------------------------------------------
# Corruption 4: a COMBINE(join) that lost its keys -> inputs no longer
# provably unique on the join key.
# ---------------------------------------------------------------------------
def test_combine_without_unique_keys_is_caught(corpus_db):
    applicable = 0
    for sql in MULTI_ORDERING_PLANS + [s for _, s in _plans()]:
        dag = _translate(corpus_db, sql)
        if dag is None:
            continue
        _, props = check_dag(dag)
        target = next(
            (
                node
                for node in dag.topological_order()
                if isinstance(node, CombineOp)
                and node.mode == "join"
                and node.key_names
                and any(
                    props[id(dep)].unique_on
                    and not any(len(s) == 0 for s in props[id(dep)].unique_on)
                    for dep in node.inputs
                )
            ),
            None,
        )
        if target is None:
            continue
        applicable += 1
        target.key_names = []
        diagnostics, codes = _codes(dag)
        assert "property" in codes, (
            f"non-unique COMBINE input not caught on: {sql}\n"
            + "\n".join(d.render({}) for d in diagnostics)
        )
        assert any("unique" in d.message for d in diagnostics)
    assert applicable >= 4, f"only {applicable} plans had a corruptible COMBINE"


# ---------------------------------------------------------------------------
# Plan-cache integration: templates that cannot be rebound are rejected at
# insert time under strict mode — not on some later cache hit.
# ---------------------------------------------------------------------------
def test_cache_rejects_template_with_unrebindable_source(corpus_db):
    sql = "SELECT g, sum(x) AS s FROM t GROUP BY g"
    dag = _translate(corpus_db, sql)
    for node in dag.nodes:
        if isinstance(node, SourceOp):
            node.plan = None

    prepared = PreparedPlan(sql, None, None, table_deps=(), ddl_version=0)
    with pytest.raises(PlanVerificationError) as excinfo:
        prepared.store_template(("fp", 0), dag, _config(True, "strict"))
    assert any(
        d.code == "unrebindable-source" for d in excinfo.value.diagnostics
    )
    assert not prepared.dag_templates

    # Below strict the template is admitted — and the failure then surfaces
    # later, at rebind time, where it is no longer attributable.
    prepared.store_template(("fp", 0), dag, _config(True, "on"))
    template = prepared.dag_templates[("fp", 0)]
    source = next(n for n in template.nodes if isinstance(n, SourceOp))
    with pytest.raises(ExecutionError):
        source.rebind(lambda plan: [])


# ---------------------------------------------------------------------------
# Contracts: each operator class declares its own, and EXPLAIN shows what
# the verifier derives.
# ---------------------------------------------------------------------------
TABLE_1 = {
    "SOURCE", "PARTITION", "SORT", "MERGE", "SCAN", "ORDAGG", "HASHAGG",
    "WINDOW", "COMBINE",
}


def test_registry_names_match_explain_legend(corpus_db):
    dag = _translate(
        corpus_db, "SELECT g, median(x) AS m FROM t GROUP BY g ORDER BY g"
    )
    assert set(dag.operator_names()) <= TABLE_1
    for node in dag.nodes:
        assert node.name() == type(node).legend


def test_unregistered_operator_raises():
    class RogueOp(Lolepop):
        pass

    rogue = RogueOp()
    with pytest.raises(PlanError):
        rogue.name()
    with pytest.raises(PlanError):
        rogue.derive([])
    dag = Dag()
    dag.set_sink(rogue)
    diagnostics, props = check_dag(dag)
    assert [d.code for d in diagnostics] == ["no-contract"]
    assert props[id(rogue)].kind == "stream"


@pytest.mark.parametrize(
    "sql, scan_line",
    [
        # No statistics operator under the LIMIT: SCAN reads the SOURCE.
        ("SELECT g, x FROM t LIMIT 3", "SCAN [limit 3 offset 0] (stream->stream)"),
        # A single HASHAGG unit: its redundant COMBINE is spliced out.
        ("SELECT g, sum(x) AS s FROM t GROUP BY g",
         "SCAN [project 2 exprs] (stream->stream)"),
        ("SELECT g, x FROM t ORDER BY x LIMIT 3",
         "SCAN [project 2 exprs, limit 3 offset 0] (buffer->stream)"),
    ],
)
def test_explain_arrows_show_the_kinds_a_node_receives(corpus_db, sql, scan_line):
    lines = corpus_db.explain_lolepop(sql).splitlines()
    assert lines[0] == "#0 SOURCE [pipeline] (-->stream)"
    assert any(scan_line in line for line in lines), lines


def test_invalid_verify_mode_rejected():
    with pytest.raises(ValueError):
        EngineConfig(verify_plans="loud")


# ---------------------------------------------------------------------------
# TPC-H: every benchmark query translates and verifies clean under strict,
# serial and parallel; one executed query exercises the strict plan-cache
# path end to end (verified template insert + verified clone on hit).
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("qid", sorted(TPCH_QUERIES))
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_tpch_queries_verify_strict(tpch_db, qid, parallel):
    region = statistics_region(tpch_db.plan(TPCH_QUERIES[qid]))
    if region is None:
        pytest.skip("no statistics region")
    # translate_statistics re-verifies after translation and after every
    # optimizer pass under strict; a diagnostic raises here.
    dag = translate_statistics(
        region, lambda plan: [], _config(parallel, "strict"), tpch_db.estimator
    )
    diagnostics, _ = check_dag(dag, require_rebindable=True)
    assert not diagnostics, [d.render({}) for d in diagnostics]


def test_tpch_strict_execution_through_plan_cache(tpch_db):
    config = _config(True, "strict")
    first = tpch_db.sql(TPCH_QUERIES["q1"], config=config).rows()
    again = tpch_db.sql(TPCH_QUERIES["q1"], config=config).rows()
    assert first == again
