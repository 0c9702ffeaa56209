"""Finding type + allowlist shared by the static analysis passes.

Findings print as ``path:line: [rule] message`` and serialize to JSON
for the CI artifact. The checked-in allowlist (``analysis/allowlist.json``)
suppresses *justified* pre-existing findings; entries match on ``(rule,
path, symbol)`` — never on line numbers, so unrelated edits don't
invalidate them — and any entry the analyzer no longer reports is *stale*
and fails CI, keeping the allowlist honest.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple


class Finding:
    """One analyzer finding."""

    __slots__ = ("rule", "path", "line", "message", "symbol", "severity")

    def __init__(
        self,
        rule: str,
        path: str,
        line: int,
        message: str,
        symbol: str = "",
        severity: str = "error",
    ):
        self.rule = rule
        self.path = str(path)
        self.line = line
        self.message = message
        #: Stable anchor for allowlist matching: ``Class.attr``,
        #: ``module-global name``, or ``Class.method`` — never a line.
        self.symbol = symbol
        #: ``error`` findings gate CI; ``info`` findings are inventory
        #: (exported in the JSON artifact, not printed by default).
        self.severity = severity

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def __repr__(self) -> str:
        return f"Finding({self.rule!r}, {self.path!r}:{self.line})"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": norm_path(self.path),
            "line": self.line,
            "message": self.message,
            "symbol": self.symbol,
            "severity": self.severity,
        }


def norm_path(path: str) -> str:
    return str(path).replace("\\", "/")


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(
        findings, key=lambda f: (norm_path(f.path), f.line, f.rule, f.symbol)
    )


# ----------------------------------------------------------------------
# Allowlist
# ----------------------------------------------------------------------
class AllowlistResult:
    __slots__ = ("active", "suppressed", "stale")

    def __init__(
        self,
        active: List[Finding],
        suppressed: List[Finding],
        stale: List[dict],
    ):
        #: Error findings not covered by any allowlist entry.
        self.active = active
        #: Findings matched (and justified) by an entry.
        self.suppressed = suppressed
        #: Entries that matched nothing — the analyzer no longer reports
        #: them, so they must be deleted.
        self.stale = stale


def load_allowlist(path) -> List[dict]:
    data = json.loads(Path(path).read_text())
    entries = data["entries"] if isinstance(data, dict) else data
    for entry in entries:
        for field in ("rule", "path", "symbol", "justification"):
            if field not in entry:
                raise ValueError(
                    f"allowlist entry missing {field!r}: {entry}"
                )
    return entries


def _entry_matches(entry: dict, finding: Finding) -> bool:
    if entry["rule"] != finding.rule or entry["symbol"] != finding.symbol:
        return False
    want = norm_path(entry["path"])
    have = norm_path(finding.path)
    return have == want or have.endswith("/" + want) or want.endswith("/" + have)


def apply_allowlist(
    findings: Sequence[Finding], entries: Optional[Sequence[dict]]
) -> AllowlistResult:
    """Split error findings into active vs suppressed; report stale
    entries. Info findings are never gated, so they pass through as
    neither active nor suppressed unless an entry matches them."""
    entries = list(entries or [])
    matched = [False] * len(entries)
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        hit = False
        for i, entry in enumerate(entries):
            if _entry_matches(entry, finding):
                matched[i] = True
                hit = True
        if hit:
            suppressed.append(finding)
        elif finding.severity == "error":
            active.append(finding)
    stale = [entry for entry, m in zip(entries, matched) if not m]
    return AllowlistResult(active, suppressed, stale)


def findings_json(
    findings: Sequence[Finding], extra: Optional[dict] = None
) -> dict:
    payload = {
        "schema_version": 1,
        "findings": [f.to_dict() for f in sort_findings(findings)],
        "counts": {
            "error": sum(1 for f in findings if f.severity == "error"),
            "info": sum(1 for f in findings if f.severity == "info"),
        },
    }
    if extra:
        payload.update(extra)
    return payload
