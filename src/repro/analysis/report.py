"""Orchestrator: run all static passes and assemble the report.

``analyze(root)`` runs pass 1 (lockset/shared-state,
:mod:`~repro.analysis.shared_state`), pass 2 (scatter purity and
undeclared input mutation, :mod:`~repro.analysis.purity`) and pass 3
(engine contract rules, :mod:`~repro.analysis.contracts`) over a source
tree and returns the sorted findings. ``tools/analyze_engine.py`` is the
CLI; ``tests/test_analysis.py`` pins each pass's detection power on
seeded-corruption corpora.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from .findings import (
    AllowlistResult,
    Finding,
    apply_allowlist,
    findings_json,
    load_allowlist,
    sort_findings,
)
from .contracts import analyze_contracts
from .purity import analyze_purity
from .shared_state import analyze_shared_state


def analyze(root) -> List[Finding]:
    """All findings from the three static passes over ``root``."""
    root = Path(root)
    findings: List[Finding] = []
    findings.extend(analyze_shared_state(root))
    findings.extend(analyze_purity(root))
    findings.extend(analyze_contracts(root))
    return sort_findings(findings)


def analyze_with_allowlist(
    root, allowlist_path: Optional[str] = None
) -> AllowlistResult:
    entries: Optional[Sequence[dict]] = None
    if allowlist_path is not None:
        entries = load_allowlist(allowlist_path)
    return apply_allowlist(analyze(root), entries)


__all__ = [
    "analyze",
    "analyze_with_allowlist",
    "findings_json",
    "sort_findings",
]
