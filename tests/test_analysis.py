"""Seeded-corruption tests for the engine concurrency analyzer.

Each static pass is pinned on a synthetic corpus carrying exactly the
defect the pass exists to catch, asserted at the right path, line, rule
and symbol:

- pass 1 (``A1-*``): an unlocked write to lock-guarded shared state;
- pass 2 (``A2-*``): a scatter callable that mutates operator state, an
  input buffer, or closure-shared state inside a parallel region;
- pass 3 (``A3-*``): an operator holding unpicklable closure state.

The real source tree must come out clean modulo the checked-in
allowlist, the allowlist machinery must report stale entries, and the
committed ``analysis/shippability.json`` must equal a fresh rebuild and
classify every registered LOLEPOP.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.findings import Finding, apply_allowlist, load_allowlist
from repro.analysis.report import analyze, analyze_with_allowlist
from repro.analysis.shippability import SCHEMA_VERSION, build_shippability_report

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ALLOWLIST = REPO_ROOT / "analysis" / "allowlist.json"
SHIPPABILITY = REPO_ROOT / "analysis" / "shippability.json"


def _write_corpus(tmp_path: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def _line_of(root: Path, rel: str, needle: str) -> int:
    for number, line in enumerate(
        (root / rel).read_text().splitlines(), start=1
    ):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not found in {rel}")


# ----------------------------------------------------------------------
# Pass 1: lockset / shared-state
# ----------------------------------------------------------------------
def test_a1_unlocked_global_write_detected(tmp_path):
    root = _write_corpus(tmp_path, {
        "cache.py": """
            import threading

            _LOCK = threading.Lock()
            _TABLE = {}


            def put(key, value):
                with _LOCK:
                    _TABLE[key] = value


            def drop(key):
                _TABLE.pop(key, None)
            """,
    })
    findings = analyze(root)
    errors = [f for f in findings if f.severity == "error"]
    assert [f.rule for f in errors] == ["A1-unlocked-global-write"]
    assert errors[0].symbol == "_TABLE"
    assert errors[0].line == _line_of(root, "cache.py", "_TABLE.pop")
    assert "_LOCK" in errors[0].message


def test_a1_unlocked_attr_write_detected(tmp_path):
    root = _write_corpus(tmp_path, {
        "registry.py": """
            import threading


            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.entries = {}
                    self.hits = 0

                def add(self, key, value):
                    with self._lock:
                        self.entries[key] = value

                def bump(self):
                    self.hits += 1

                def get(self, key):
                    with self._lock:
                        self.hits += 1
                        return self.entries.get(key)
            """,
    })
    errors = [f for f in analyze(root) if f.severity == "error"]
    assert [f.rule for f in errors] == ["A1-unlocked-attr-write"]
    assert errors[0].symbol == "Registry.hits"
    assert errors[0].line == _line_of(root, "registry.py", "self.hits += 1")
    assert "bump()" in errors[0].message


def test_a1_clean_when_every_access_is_locked(tmp_path):
    root = _write_corpus(tmp_path, {
        "registry.py": """
            import threading


            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0

                def bump(self):
                    with self._lock:
                        self.hits += 1
            """,
    })
    assert [f for f in analyze(root) if f.severity == "error"] == []


def test_a1_private_helper_called_under_lock_is_not_flagged(tmp_path):
    """A private helper whose every intra-class call site holds the lock
    inherits it (called-under-lock inference) — no false positive."""
    root = _write_corpus(tmp_path, {
        "registry.py": """
            import threading


            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.entries = {}

                def drop(self, key):
                    with self._lock:
                        self._evict(key)

                def clear(self):
                    with self._lock:
                        for key in list(self.entries):
                            self._evict(key)

                def _evict(self, key):
                    self.entries.pop(key, None)
            """,
    })
    assert [f for f in analyze(root) if f.severity == "error"] == []


# ----------------------------------------------------------------------
# Pass 2: scatter purity
# ----------------------------------------------------------------------
def test_a2_scatter_self_write_detected(tmp_path):
    root = _write_corpus(tmp_path, {
        "hashagg.py": """
            class ScatterOp:
                mutates_input = False

                def execute(self, ctx, inputs):
                    def scatter_one(item):
                        self.seen += 1
                        return item

                    return ctx.run_region(
                        self, "scatter", inputs[0], scatter_one
                    )
            """,
    })
    errors = [f for f in analyze(root) if f.severity == "error"]
    assert [f.rule for f in errors] == ["A2-scatter-self-write"]
    assert errors[0].line == _line_of(root, "hashagg.py", "self.seen += 1")


def test_a2_scatter_input_write_detected_and_declaration_suppresses(
    tmp_path,
):
    corpus = """
        class SortishOp:
        {declaration}
            def execute(self, ctx, inputs):
                buf = inputs[0]
                return ctx.run_region(
                    self, "sort", buf.partitions,
                    lambda part: buf.sort_inplace(["k"]),
                )
        """
    root = _write_corpus(tmp_path, {
        "sortish.py": corpus.format(declaration="    mutates_input = False\n"),
    })
    errors = [f for f in analyze(root) if f.severity == "error"]
    assert [f.rule for f in errors] == ["A2-scatter-input-write"]
    assert errors[0].line == _line_of(root, "sortish.py", "buf.sort_inplace")

    declared = _write_corpus(tmp_path / "declared", {
        "sortish.py": corpus.format(declaration="    mutates_input = True\n"),
    })
    assert [f for f in analyze(declared) if f.severity == "error"] == []


def test_a2_scatter_global_write_detected(tmp_path):
    root = _write_corpus(tmp_path, {
        "combine.py": """
            class CombineLikeOp:
                def execute(self, ctx, inputs):
                    total = 0

                    def work(item):
                        nonlocal total
                        total += len(item)

                    ctx.parallel_for("combine", inputs[0], work)
                    return total
            """,
    })
    errors = [f for f in analyze(root) if f.severity == "error"]
    assert [f.rule for f in errors] == ["A2-scatter-global-write"]
    assert errors[0].line == _line_of(root, "combine.py", "total += len")


# ----------------------------------------------------------------------
# Pass 3: process-shippability
# ----------------------------------------------------------------------
def test_a3_unpicklable_attr_detected(tmp_path):
    root = _write_corpus(tmp_path, {
        "source.py": """
            class BadSource:
                def __init__(self, thunk):
                    self._thunk = thunk

                def execute(self, ctx, inputs):
                    return self._thunk()
            """,
    })
    infos = [f for f in analyze(root) if f.rule == "A3-unpicklable-attr"]
    assert len(infos) == 1
    assert infos[0].severity == "info"
    assert infos[0].symbol == "BadSource._thunk"
    assert infos[0].line == _line_of(root, "source.py", "self._thunk = thunk")


# ----------------------------------------------------------------------
# Real tree + allowlist
# ----------------------------------------------------------------------
def test_src_tree_clean_modulo_allowlist():
    result = analyze_with_allowlist(SRC, str(ALLOWLIST))
    assert result.active == [], "\n".join(str(f) for f in result.active)
    assert result.stale == []
    # Exactly the one justified entry (Gauge.set's GIL-atomic store).
    assert [f.symbol for f in result.suppressed] == ["Gauge.value"]


def test_allowlist_reports_stale_entries():
    entry = {
        "rule": "A1-unlocked-attr-write",
        "path": "src/repro/nowhere.py",
        "symbol": "Ghost.attr",
        "justification": "left behind on purpose",
    }
    result = apply_allowlist([], [entry])
    assert result.stale == [entry]


def test_allowlist_matches_on_rule_path_symbol_not_line():
    entry = {
        "rule": "A1-unlocked-attr-write",
        "path": "repro/observability/metrics.py",
        "symbol": "Gauge.value",
        "justification": "j",
    }
    hit = Finding(
        "A1-unlocked-attr-write",
        "src/repro/observability/metrics.py",
        999_999,  # line must not matter
        "m",
        symbol="Gauge.value",
    )
    miss = Finding(
        "A1-unlocked-attr-write",
        "src/repro/observability/metrics.py",
        1,
        "m",
        symbol="Counter.value",
    )
    result = apply_allowlist([hit, miss], [entry])
    assert result.suppressed == [hit]
    assert result.active == [miss]
    assert result.stale == []


def test_allowlist_entries_require_justification(tmp_path):
    path = tmp_path / "allow.json"
    path.write_text(json.dumps({"entries": [
        {"rule": "A1-unlocked-attr-write", "path": "x.py", "symbol": "C.a"}
    ]}))
    with pytest.raises(ValueError, match="justification"):
        load_allowlist(path)


# ----------------------------------------------------------------------
# Shippability report
# ----------------------------------------------------------------------
def test_committed_shippability_report_is_current():
    assert build_shippability_report(SRC) == json.loads(
        SHIPPABILITY.read_text()
    ), "analysis/shippability.json is stale; regenerate with " \
       "`python tools/analyze_engine.py src --write-shippability " \
       "analysis/shippability.json`"


def test_shippability_report_classifies_every_registered_lolepop():
    from repro.lolepop.properties import registered_contracts

    report = build_shippability_report(SRC)
    assert report["schema_version"] == SCHEMA_VERSION
    names = {op["name"] for op in report["operators"]}
    assert names == {c.name for c in registered_contracts()}
    for op in report["operators"]:
        assert op["verdict"] in ("shippable", "needs_rebind", "blocked")
        if op["verdict"] == "shippable":
            assert op["blocking"] == []
        else:
            assert op["blocking"], op
        for entry in op["blocking"]:
            assert set(entry) == {
                "attr", "defined_in", "line", "class", "reason"
            }
    # Storage section pins every dtype=object construction site: only the
    # string dictionary's entry array is left.
    sites = report["storage"]["object_dtype_sites"]
    assert [s["path"].rsplit("/", 1)[-1] for s in sites] == ["dictionary.py"]


def test_shippability_thunk_sources_need_rebind_core_ops_ship():
    verdicts = {
        op["op"]: op["verdict"]
        for op in build_shippability_report(SRC)["operators"]
    }
    assert verdicts["SourceOp"] == "needs_rebind"
    for core in ("PartitionOp", "SortOp", "MergeOp", "HashAggOp",
                 "OrdAggOp", "WindowOp", "CombineOp", "ScanOp"):
        assert verdicts[core] == "shippable", (core, verdicts[core])
