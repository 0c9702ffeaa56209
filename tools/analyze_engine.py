#!/usr/bin/env python
"""Engine static-analyzer CLI (stdlib-only).

Runs the static passes from :mod:`repro.analysis` (lockset ``A1-*``,
scatter purity ``A2-*``, engine contract rules ``R1``/``R2``/``R5``)
over a source tree and prints findings as ``path:line: [rule] message``.
Exit status 1 when any *error* finding is active (not covered by the
allowlist) or when the allowlist carries stale entries.

Usage (CI invocation)::

    python tools/analyze_engine.py src \
        --allowlist analysis/allowlist.json \
        --json out/findings.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.findings import (  # noqa: E402
    apply_allowlist,
    findings_json,
    load_allowlist,
)
from repro.analysis.report import analyze  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", nargs="?", default="src")
    parser.add_argument("--allowlist", help="analysis/allowlist.json")
    parser.add_argument("--json", dest="json_out",
                        help="write the findings JSON artifact here")
    parser.add_argument("--show-info", action="store_true",
                        help="also print info-severity findings")
    args = parser.parse_args(argv[1:])

    root = Path(args.root)
    if not root.exists():
        print(f"no such path: {root}", file=sys.stderr)
        return 2

    findings = analyze(root)
    entries = load_allowlist(args.allowlist) if args.allowlist else None
    result = apply_allowlist(findings, entries)

    status = 0
    for finding in result.active:
        print(finding)
    if args.show_info:
        for finding in findings:
            if finding.severity == "info" and finding not in result.suppressed:
                print(f"{finding}  (info)")
    if result.active:
        print(
            f"{len(result.active)} active analyzer finding(s)",
            file=sys.stderr,
        )
        status = 1
    for entry in result.stale:
        print(
            f"stale allowlist entry (analyzer no longer reports it): "
            f"{entry['rule']} {entry['path']} {entry['symbol']}",
            file=sys.stderr,
        )
        status = 1

    if args.json_out:
        payload = findings_json(
            findings,
            extra={
                "active": len(result.active),
                "suppressed": len(result.suppressed),
                "stale_allowlist_entries": len(result.stale),
            },
        )
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if status == 0:
        suppressed = (
            f", {len(result.suppressed)} suppressed by allowlist"
            if result.suppressed else ""
        )
        print(f"engine analyzer: ok{suppressed}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
