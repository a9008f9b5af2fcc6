#!/usr/bin/env python3
"""Validate a Chrome-trace JSON produced by the vqmc telemetry tracer.

Checks (in order):
  1. The file parses as JSON and has a non-empty ``traceEvents`` array.
  2. Every complete ("X") event carries the required keys with sane values
     (non-negative ts/dur, string name).
  3. Complete-event timestamps are monotone non-decreasing (the exporter
     sorts by ts; a violation means a broken merge or clock).
  4. Every span name in ``--phases`` appears at least once.
  5. Every expected rank appears as a distinct tid (ranks map to tids; the
     exporter also emits "M" thread_name metadata rows naming them).
  6. Per-iteration coverage: the direct children of each "iteration" span
     (the spans on its tid one ``args.depth`` deeper that start inside its
     interval, whatever their names) must account for at least
     ``--min-coverage`` of iteration wall time (acceptance: >= 0.95).

Usage:
  python3 tools/check_trace.py trace.json [--ranks 4] [--min-coverage 0.95] \
      [--phases sample,local_energy,gradient,allreduce,optimizer]

Exits 0 on success, 1 with a diagnostic on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def fail(message: str) -> None:
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome-trace JSON file to validate")
    parser.add_argument(
        "--ranks",
        type=int,
        default=0,
        help="require ranks 0..R-1 to appear as tids (0 = skip the check)",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=0.95,
        help="minimum fraction of iteration span time covered by its "
        "direct child spans",
    )
    parser.add_argument(
        "--phases",
        default="sample,local_energy,gradient,allreduce,optimizer",
        help="comma-separated span names that must appear (empty = skip); "
        "coverage does not depend on this list",
    )
    args = parser.parse_args()

    # 1. Parse.
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot parse {args.trace}: {exc}")

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        fail("no complete ('X') span events in trace")

    # 2. Required keys and sane values on every complete event.
    for i, event in enumerate(complete):
        for key in REQUIRED_KEYS:
            if key not in event:
                fail(f"event {i} missing key '{key}': {event}")
        if "dur" not in event:
            fail(f"event {i} missing key 'dur': {event}")
        if not isinstance(event["name"], str) or not event["name"]:
            fail(f"event {i} has a non-string/empty name: {event}")
        if event["ts"] < 0 or event["dur"] < 0:
            fail(f"event {i} has negative ts/dur: {event}")

    # 3. Monotone timestamps.
    last_ts = None
    for event in complete:
        if last_ts is not None and event["ts"] < last_ts:
            fail(
                f"timestamps not monotone: {event['ts']} after {last_ts} "
                f"(event {event['name']})"
            )
        last_ts = event["ts"]

    # 4. Required phases present.
    names = {event["name"] for event in complete}
    phases = [p for p in args.phases.split(",") if p]
    missing = [p for p in phases if p not in names]
    if missing:
        fail(f"missing phase spans: {missing} (present: {sorted(names)})")

    # 5. Ranks present as tids.
    if args.ranks > 0:
        tids = {event["tid"] for event in complete}
        missing_ranks = [r for r in range(args.ranks) if r not in tids]
        if missing_ranks:
            fail(f"missing rank tids: {missing_ranks} (tids seen: {sorted(tids)})")

    # 6. Coverage: each "iteration" span against its direct children. The
    #    events are in ts order (check 3) and spans on one tid nest, so a
    #    child starts after its iteration opened and before it closed.
    iteration_total = 0.0
    covered_total = 0.0
    open_iterations = {}  # tid -> the open iteration span's running totals

    def close(tid: int) -> None:
        nonlocal iteration_total, covered_total
        span = open_iterations.pop(tid, None)
        if span is not None:
            iteration_total += span["dur"]
            covered_total += min(span["children"], span["dur"])

    for event in complete:
        tid = event["tid"]
        depth = event.get("args", {}).get("depth")
        if event["name"] == "iteration":
            if not isinstance(depth, int):
                fail(f"iteration span without an integer args.depth: {event}")
            close(tid)
            open_iterations[tid] = {
                "end": event["ts"] + event["dur"],
                "child_depth": depth + 1,
                "dur": event["dur"],
                "children": 0.0,
            }
            continue
        span = open_iterations.get(tid)
        if span is None:
            continue
        if event["ts"] >= span["end"]:
            close(tid)
        elif depth == span["child_depth"]:
            span["children"] += event["dur"]
    for tid in list(open_iterations):
        close(tid)

    if iteration_total > 0:
        coverage = covered_total / iteration_total
        if coverage < args.min_coverage:
            fail(
                f"child spans cover {coverage:.1%} of iteration time "
                f"(need >= {args.min_coverage:.0%})"
            )
        print(
            f"check_trace: OK: {len(complete)} spans, "
            f"{len(names)} distinct names, coverage {coverage:.1%}"
        )
    else:
        print(
            f"check_trace: OK: {len(complete)} spans, "
            f"{len(names)} distinct names (no iteration spans; "
            "coverage check skipped)"
        )


if __name__ == "__main__":
    main()
