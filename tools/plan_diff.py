#!/usr/bin/env python
"""Regression attribution: diff two query-profile JSONs and attribute the
movement to operators and rewrite events.

Input is the profile JSON of a traced run
(``repro.observability.metrics.profile_dict``, e.g. the shell's
``.profile json`` or the benchmark ``--profile-dir`` output): operators are
matched by ``(dag index, name, describe)`` and their rank among equal
ones, not by id, so an operator a rewrite removed does not shift the ids
of those after it into false removals. Per-operator wall-time, rows,
spill, and bytes-materialized deltas are reported (``materialized_delta_bytes``
is the change in what the operator wrote into a buffer: a PARTITION, MERGE
or COMBINE's buffer as built, before a memory budget spilled any of it, or
the columns a WINDOW appended; every other operator writes 0), operators that
appeared/disappeared are listed, and disappeared operators are attributed
to the rewrite events that name them (``rewrites`` is the optimizer's
structured provenance: one ``{text, pass, detail, nodes}`` dict per
rewrite that fired). An event whose node label names the operator's
describe text wins over one that only names its operator kind.

Usage::

    PYTHONPATH=src python tools/plan_diff.py before.json after.json \
        --json report.json

Exit status: 0 on success (any delta — this tool attributes, the ledger
judges), 2 on unreadable input or a document that is not a profile.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple


def _load(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(doc, dict):
        print(f"error: {path} is not a JSON object", file=sys.stderr)
        return None
    return doc


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1000:+.2f}ms"


def _fmt_bytes(num: float) -> str:
    sign = "+" if num >= 0 else "-"
    num = abs(num)
    for unit in ("B", "KB", "MB", "GB"):
        if num < 1024.0 or unit == "GB":
            return f"{sign}{num:.0f}{unit}" if unit == "B" else f"{sign}{num:.1f}{unit}"
        num /= 1024.0
    return f"{sign}{num:.1f}GB"


# ----------------------------------------------------------------------
# Profile diff
# ----------------------------------------------------------------------

#: (dag index, name, describe, rank among the dag's equal operators)
OpKey = Tuple[int, str, str, int]


def _profile_operators(doc: dict) -> Dict[OpKey, dict]:
    out: Dict[OpKey, dict] = {}
    for dag in doc.get("dags", []):
        dag_index = int(dag.get("index", 0))
        seen: Counter = Counter()
        for op in sorted(dag.get("operators", []), key=lambda o: int(o.get("id", 0))):
            ident = (dag_index, str(op.get("name", "?")), str(op.get("describe") or ""))
            out[ident + (seen[ident],)] = op
            seen[ident] += 1
    return out


def _op_order(ops: Dict[OpKey, dict], keys) -> List[OpKey]:
    return sorted(keys, key=lambda k: (k[0], int(ops[k].get("id", 0))))


def _node_text(key: OpKey) -> str:
    """``"SORT [k,v]"``: an optimizer node label without its ``#id``."""
    _, name, describe, _ = key
    return f"{name} [{describe}]" if describe else name


def _op_label(key: OpKey, op: dict) -> str:
    return f"region {key[0]} #{int(op.get('id', 0))} {_node_text(key)}"


def _events(doc: dict) -> List[dict]:
    # Profiles written before the log carried structure hold plain strings.
    return [
        entry if isinstance(entry, dict) else {"text": str(entry)}
        for entry in doc.get("rewrites", [])
    ]


def diff_profiles(before: dict, after: dict) -> dict:
    ops_a = _profile_operators(before)
    ops_b = _profile_operators(after)
    changed: List[dict] = []
    for key in _op_order(ops_b, set(ops_a) & set(ops_b)):
        a, b = ops_a[key], ops_b[key]
        entry = {
            "operator": _op_label(key, b),
            "wall_delta_s": float(b.get("wall_time_s", 0.0))
            - float(a.get("wall_time_s", 0.0)),
            "rows_out_delta": int(b.get("rows_out", 0)) - int(a.get("rows_out", 0)),
            "spill_delta_bytes": (
                int(b.get("spill_bytes_written", 0))
                + int(b.get("spill_bytes_read", 0))
                - int(a.get("spill_bytes_written", 0))
                - int(a.get("spill_bytes_read", 0))
            ),
            "materialized_delta_bytes": int(b.get("bytes_materialized", 0))
            - int(a.get("bytes_materialized", 0)),
        }
        if any(
            entry[k]
            for k in (
                "wall_delta_s", "rows_out_delta",
                "spill_delta_bytes", "materialized_delta_bytes",
            )
        ):
            changed.append(entry)
    changed.sort(key=lambda e: -abs(e["wall_delta_s"]))

    events_a, events_b = _events(before), _events(after)
    texts_a = [str(e.get("text", "")) for e in events_a]
    texts_b = [str(e.get("text", "")) for e in events_b]
    added_rewrites = [e for e in events_b if e.get("text", "") not in texts_a]
    removed_rewrites = [t for t in texts_a if t not in texts_b]

    def _attribute(key: OpKey) -> Optional[str]:
        """The rewrite event (in `after`) whose node list names the
        operator: by its describe text first, then by its kind alone."""
        exact = _node_text(key)
        for matches in (
            lambda node: re.sub(r"^#\d+ ", "", node) == exact,
            lambda node: key[1] in node,
        ):
            for event in events_b:
                if any(matches(str(node)) for node in event.get("nodes", [])):
                    return str(event.get("text", ""))
        return None

    removed_ops = [
        {
            "operator": _op_label(key, ops_a[key]),
            "wall_s": float(ops_a[key].get("wall_time_s", 0.0)),
            "attributed_to": _attribute(key),
        }
        for key in _op_order(ops_a, set(ops_a) - set(ops_b))
    ]
    added_ops = [
        {
            "operator": _op_label(key, ops_b[key]),
            "wall_s": float(ops_b[key].get("wall_time_s", 0.0)),
        }
        for key in _op_order(ops_b, set(ops_b) - set(ops_a))
    ]
    return {
        "kind": "profile",
        "query": after.get("query") or before.get("query"),
        "total_wall_delta_s": float(after.get("serial_time_s", 0.0))
        - float(before.get("serial_time_s", 0.0)),
        "operators_changed": changed,
        "operators_removed": removed_ops,
        "operators_added": added_ops,
        "rewrites_added": added_rewrites,
        "rewrites_removed": removed_rewrites,
    }


def _render_profile(report: dict) -> List[str]:
    lines = [f"plan diff (profile): {report.get('query') or '?'}"]
    lines.append(f"total work: {_fmt_s(report['total_wall_delta_s'])}")
    if report["rewrites_added"]:
        lines.append("rewrites added:")
        lines.extend(
            f"  + {event.get('text', '?')}" for event in report["rewrites_added"]
        )
    if report["rewrites_removed"]:
        lines.append("rewrites removed:")
        lines.extend(f"  - {text}" for text in report["rewrites_removed"])
    if report["operators_removed"]:
        lines.append("operators removed:")
        for entry in report["operators_removed"]:
            attributed = entry.get("attributed_to")
            note = f"  <- {attributed}" if attributed else ""
            lines.append(
                f"  - {entry['operator']} "
                f"(was {entry['wall_s'] * 1000:.2f}ms){note}"
            )
    if report["operators_added"]:
        lines.append("operators added:")
        lines.extend(
            f"  + {e['operator']} ({e['wall_s'] * 1000:.2f}ms)"
            for e in report["operators_added"]
        )
    if report["operators_changed"]:
        lines.append("operators changed (by |wall delta|):")
        for entry in report["operators_changed"][:15]:
            parts = [f"wall {_fmt_s(entry['wall_delta_s'])}"]
            if entry["rows_out_delta"]:
                parts.append(f"rows {entry['rows_out_delta']:+d}")
            if entry["spill_delta_bytes"]:
                parts.append(f"spill {_fmt_bytes(entry['spill_delta_bytes'])}")
            if entry["materialized_delta_bytes"]:
                parts.append(
                    f"mat {_fmt_bytes(entry['materialized_delta_bytes'])}"
                )
            lines.append(f"  {entry['operator']}: " + " ".join(parts))
    if not any(
        report[k]
        for k in (
            "operators_changed", "operators_removed", "operators_added",
            "rewrites_added", "rewrites_removed",
        )
    ):
        lines.append("no per-operator or rewrite differences")
    return lines


# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="baseline profile JSON")
    parser.add_argument("after", help="current profile JSON")
    parser.add_argument(
        "--json", metavar="PATH", help="also write the structured report here"
    )
    args = parser.parse_args(argv)

    before, after = _load(args.before), _load(args.after)
    if before is None or after is None:
        return 2
    for path, doc in ((args.before, before), (args.after, after)):
        if "dags" not in doc:
            print(f"error: {path} is not a query profile", file=sys.stderr)
            return 2

    report = diff_profiles(before, after)
    lines = _render_profile(report)
    print("\n".join(lines))
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=1)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
