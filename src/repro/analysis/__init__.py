"""Engine static analyzer: concurrency passes + engine contract rules.

Static passes (stdlib ``ast`` only — the analyzer runs anywhere the
engine runs):

- pass 1 — :mod:`repro.analysis.shared_state`: lockset inference over
  module-global and long-lived-object mutable state (rules ``A1-*``);
- pass 2 — :mod:`repro.analysis.purity`: scatter-phase purity by
  assignment/aliasing dataflow over every parallel-region work callable
  (rules ``A2-*``), and the same dataflow over ``execute`` itself
  (``R2-undeclared-mutation``);
- pass 3 — :mod:`repro.analysis.contracts`: kind-vs-return and stringly
  rewrites (``R1``/``R5``).

Runtime cross-check — :mod:`repro.analysis.sanitizer`: writer/reader
epoch tracking on the storage structures (``REPRO_SANITIZE=on``), used by
the parallel fuzz corpus to confirm the static findings and to fail on
analyzer false-negatives.

This ``__init__`` stays import-light on purpose: ``storage/buffer.py``
and the schedulers import :mod:`repro.analysis.sanitizer` on their hot
paths, so pulling the AST passes in eagerly would tax every engine
import. The analysis API is re-exported lazily.
"""

from __future__ import annotations

_LAZY = {
    "analyze": "repro.analysis.report",
    "analyze_with_allowlist": "repro.analysis.report",
    "findings_json": "repro.analysis.report",
    "sort_findings": "repro.analysis.report",
    "Finding": "repro.analysis.findings",
    "apply_allowlist": "repro.analysis.findings",
    "load_allowlist": "repro.analysis.findings",
    "analyze_shared_state": "repro.analysis.shared_state",
    "analyze_purity": "repro.analysis.purity",
    "analyze_contracts": "repro.analysis.contracts",
    "derive_mutating_methods": "repro.analysis.astutils",
    "Sanitizer": "repro.analysis.sanitizer",
    "SAN": "repro.analysis.sanitizer",
    "enable": "repro.analysis.sanitizer",
    "disable": "repro.analysis.sanitizer",
    "analyzer_false_negatives": "repro.analysis.sanitizer",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
