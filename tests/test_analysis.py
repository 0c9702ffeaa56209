"""Seeded-corruption tests for the engine static analyzer.

Each static pass is pinned on a synthetic corpus carrying exactly the
defect the pass exists to catch, asserted at the right path, line, rule
and symbol — and a *clean* corpus proving the fix silences it:

- pass 1 (``A1-*``): an unlocked write to lock-guarded shared state;
- pass 2 (``A2-*``): a scatter callable that mutates operator state, an
  input buffer, or closure-shared state inside a parallel region — and
  (``R2``) an ``execute`` that mutates an input buffer undeclared;
- pass 3 (``R1``/``R5``): an operator returning the wrong kind, a plain
  string on ``Dag.rewrites``.

The real source tree must come out clean modulo the checked-in
allowlist, the allowlist machinery must report stale entries, and the
buffer-mutator fallback literal must equal the set derived from the real
``storage/buffer.py``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.astutils import derive_mutating_methods, parse_file
from repro.analysis.findings import Finding, apply_allowlist, load_allowlist
from repro.analysis.purity import DEFAULT_BUFFER_MUTATORS
from repro.analysis.report import analyze, analyze_with_allowlist

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ALLOWLIST = REPO_ROOT / "analysis" / "allowlist.json"


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
# Pass 2, execute scope: R2 undeclared input mutation
# ----------------------------------------------------------------------
_R2_OP = """
    class Lolepop:
        pass


    class ReorderOp(Lolepop):
        produces = "buffer"
    {declaration}
        def execute(self, ctx, inputs):
            buf = inputs[0]
            buf.sort_inplace(["k"])
            return buf
    """


def test_r2_undeclared_mutation_fires(tmp_path):
    root = _write_corpus(tmp_path, {
        "lolepop/ops.py": _R2_OP.format(declaration=""),
    })
    findings = analyze(root)
    assert [f.rule for f in findings] == ["R2-undeclared-mutation"]
    assert Path(findings[0].path).name == "ops.py"
    assert findings[0].line == _line_of(
        root, "lolepop/ops.py", "buf.sort_inplace"
    )
    assert "mutates_input" in findings[0].message


def test_r2_clean_when_mutation_declared(tmp_path):
    root = _write_corpus(tmp_path, {
        "lolepop/ops.py": _R2_OP.format(
            declaration="    mutates_input = True\n"
        ),
    })
    assert analyze(root) == []


def test_r2_flags_writes_through_input_buffers(tmp_path):
    root = _write_corpus(tmp_path, {
        "lolepop/ops.py": """
            class Lolepop:
                pass


            class PokeOp(Lolepop):
                produces = "buffer"

                def execute(self, ctx, inputs):
                    buf = inputs[0]
                    buf.partitions[0] = None
                    return buf
            """,
    })
    findings = analyze(root)
    assert [f.rule for f in findings] == ["R2-undeclared-mutation"]
    assert findings[0].line == _line_of(
        root, "lolepop/ops.py", "buf.partitions[0]"
    )


def test_r2_mutator_set_derived_from_corpus_buffer_source(tmp_path):
    """When the scanned tree ships its own ``storage/buffer.py``, the
    mutator set comes from *that* source, not the fallback literal: a
    method found only in the corpus buffer (``munge``) fires, and a
    fallback-only name (``sort_inplace``) does not."""
    root = _write_corpus(tmp_path, {
        "storage/buffer.py": """
            class TupleBuffer:
                def munge(self, rows):
                    self.rows = rows

                def peek(self):
                    return self.rows
            """,
        "lolepop/ops.py": """
            class Lolepop:
                pass


            class MungeOp(Lolepop):
                produces = "buffer"

                def execute(self, ctx, inputs):
                    buf = inputs[0]
                    buf.munge([])
                    buf.sort_inplace(["k"])
                    return buf
            """,
    })
    findings = [f for f in analyze(root) if f.severity == "error"]
    assert [f.rule for f in findings] == ["R2-undeclared-mutation"]
    assert findings[0].line == _line_of(root, "lolepop/ops.py", "buf.munge")


def test_fallback_literal_matches_derived_mutator_set():
    tree = parse_file(SRC / "repro" / "storage" / "buffer.py")
    assert derive_mutating_methods(tree) == set(DEFAULT_BUFFER_MUTATORS)


# ----------------------------------------------------------------------
# Pass 3: engine contract rules
# ----------------------------------------------------------------------
_R1_OP = """
    class Lolepop:
        pass


    class StreamyOp(Lolepop):
        produces = {produces!r}

        def execute(self, ctx, inputs):
            out = TupleBuffer(self.schema)
            return out
    """


def test_r1_kind_vs_return_fires(tmp_path):
    root = _write_corpus(tmp_path, {
        "lolepop/ops.py": _R1_OP.format(produces="stream"),
    })
    findings = analyze(root)
    assert [f.rule for f in findings] == ["R1-kind-vs-return"]
    assert Path(findings[0].path).name == "ops.py"
    assert findings[0].line == _line_of(root, "lolepop/ops.py", "return out")
    assert "produces='stream'" in findings[0].message


def test_r1_clean_when_declaration_matches(tmp_path):
    root = _write_corpus(tmp_path, {
        "lolepop/ops.py": _R1_OP.format(produces="buffer"),
    })
    assert analyze(root) == []


def test_r5_flags_plain_string_appends(tmp_path):
    root = _write_corpus(tmp_path, {
        "synthetic.py": """
            def f(dag, n):
                dag.rewrites.append('literal')
                dag.rewrites.append(f'elide x{n}')
                dag.rewrites.append('a' + str(n))
            """,
    })
    findings = analyze(root)
    assert [f.rule for f in findings] == ["R5-stringly-rewrite"] * 3
    assert [f.line for f in findings] == [
        _line_of(root, "synthetic.py", needle)
        for needle in ("'literal'", "f'elide", "'a' + str(n)")
    ]


def test_r5_allows_record_rewrite_and_event_appends(tmp_path):
    root = _write_corpus(tmp_path, {
        "synthetic.py": """
            def f(dag):
                dag.record_rewrite('fine: builds a RewriteEvent')
                dag.rewrites.append(make_event())
                other.history.append('unrelated list of strings')
            """,
    })
    assert analyze(root) == []


# ----------------------------------------------------------------------
# Real tree + allowlist
# ----------------------------------------------------------------------
def test_src_tree_clean_modulo_allowlist():
    """The one real-tree check, covering every rule (A1/A2/R1/R2/R5)."""
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
