#!/usr/bin/env python
"""Render a service-telemetry report (text or JSON) from a telemetry dump.

Input is the JSON written by ``Telemetry.dump(path)`` (the shape
``{"report": ..., "events": [...]}``) — produced by
``benchmarks/bench_server_throughput.py --telemetry-dir`` or any caller of
the telemetry API — or a bare ``Telemetry.report()`` document.

Usage::

    PYTHONPATH=src python tools/telemetry_report.py telemetry.json
    PYTHONPATH=src python tools/telemetry_report.py telemetry.json --json
    PYTHONPATH=src python tools/telemetry_report.py telemetry.json \
        --assert-min-fingerprints 1 --assert-zero-dropped \
        --assert-feedback-nonempty server-artifacts/feedback

The ``--assert-*`` flags make the renderer double as a CI check: exit 1
when the report has fewer tracked fingerprints than required, when the
flight recorder dropped events (i.e. the ring was undersized for the run),
or when the cardinality feedback store directory holds no persisted
observations (the feedback loop never closed) or a document the store
would skip on load.

Exit status: 0 ok, 1 assertion failed, 2 bad arguments / unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.observability.feedback import load_document  # noqa: E402
from repro.observability.telemetry import render_report  # noqa: E402


def load_report(path: str) -> dict:
    """The report document inside ``path`` (dump wrapper or bare report)."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if "report" in doc and isinstance(doc["report"], dict):
        return doc["report"]
    return doc


def _feedback_documents(directory: str):
    """``(count, skipped)`` over the ``fb_*.json`` documents in
    ``directory``: how many the feedback store would load with at least one
    signature slot, and the names of those it would skip."""
    import glob

    count, skipped = 0, []
    for path in sorted(glob.glob(os.path.join(directory, "fb_*.json"))):
        try:
            count += bool(load_document(path).slots)
        except (OSError, ValueError, TypeError) as error:
            skipped.append(f"{os.path.basename(path)} ({error})")
    return count, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="telemetry dump or report JSON file")
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report document as JSON instead of text",
    )
    parser.add_argument(
        "--assert-min-fingerprints",
        type=int,
        default=None,
        metavar="N",
        help="exit 1 unless at least N plan fingerprints are tracked",
    )
    parser.add_argument(
        "--assert-zero-dropped",
        action="store_true",
        help="exit 1 if the flight recorder rotated any events out",
    )
    parser.add_argument(
        "--assert-feedback-nonempty",
        metavar="DIR",
        default=None,
        help="exit 1 unless DIR holds at least one non-empty persisted "
        "cardinality-feedback document (fb_*.json) and none the store skips",
    )
    args = parser.parse_args(argv)

    try:
        report = load_report(args.path)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.path}: {error}", file=sys.stderr)
        return 2
    try:
        text = render_report(report)
    except KeyError as error:
        print(f"error: not a telemetry report (missing {error})", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(text)

    failures = []
    if args.assert_min_fingerprints is not None:
        tracked = report["workload"]["tracked"]
        if tracked < args.assert_min_fingerprints:
            failures.append(
                f"only {tracked} fingerprints tracked "
                f"(need >= {args.assert_min_fingerprints})"
            )
    if args.assert_zero_dropped:
        dropped = report["flight_recorder"]["dropped"]
        if dropped:
            failures.append(
                f"flight recorder dropped {dropped} events "
                "(ring capacity too small for the run)"
            )
    if args.assert_feedback_nonempty is not None:
        count, skipped = _feedback_documents(args.assert_feedback_nonempty)
        if count == 0:
            failures.append(
                f"feedback store {args.assert_feedback_nonempty!r} holds no "
                "valid observation documents (the Q-error loop never closed)"
            )
        else:
            print(f"feedback store: {count} persisted fingerprint(s)")
        if skipped:
            failures.append(
                "the feedback store would skip " + ", ".join(skipped)
                + " (its writer and its loader disagree)"
            )
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
