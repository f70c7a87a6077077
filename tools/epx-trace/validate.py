#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace-out.

Checks, stdlib-only (CI runs this against every uploaded trace):

  * the file is valid JSON with the expected top-level shape
    ({"traceEvents": [...], "displayTimeUnit": ...});
  * every event carries the keys its phase requires, with sane types;
  * async begin/end events ("b"/"e") balance per (cat, id) and never
    end before they begin;
  * complete events ("X") have non-negative durations, and a stage event
    that names a parent span (args.trace) lies inside that span's
    [begin, end] interval;
  * with --require-spans: at least one span has the full causal
    lifecycle the paper's analysis needs — a parent e2e span plus
    propose-wait, quorum-wait and a strictly positive merge-skew-wait
    stage (the dMerge hold of Elastic Paxos).

Exit status 0 on success; 1 with per-check diagnostics on failure.

Usage: validate.py TRACE.json [--require-spans]
"""
from __future__ import annotations

import json
import sys

VALID_PHASES = {"b", "e", "X", "i", "M"}

# Interval names obs::SpanCollector emits for the per-stage "X" events.
STAGE_EVENTS = {
    "propose_wait",
    "quorum_wait",
    "durable_wait",
    "learn_wait",
    "merge_skew_wait",
    "apply",
    "client_rtt",
}


class Failure(Exception):
    pass


def fail(msg: str) -> None:
    raise Failure(msg)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    if not isinstance(doc["traceEvents"], list):
        fail("traceEvents must be an array")
    return doc


def check_common_fields(i: int, ev: dict) -> None:
    if not isinstance(ev, dict):
        fail(f"event #{i}: not an object")
    ph = ev.get("ph")
    if ph not in VALID_PHASES:
        fail(f"event #{i}: unknown phase {ph!r}")
    if ph != "M":
        for key in ("ts", "pid", "tid"):
            if not isinstance(ev.get(key), (int, float)):
                fail(f"event #{i} (ph={ph}): missing/non-numeric {key!r}")
        if ev.get("ts", 0) < 0:
            fail(f"event #{i}: negative timestamp {ev['ts']}")
    if ph in ("b", "e", "X", "i") and not isinstance(ev.get("name"), str):
        fail(f"event #{i} (ph={ph}): missing name")
    if ph in ("b", "e") and not isinstance(ev.get("id"), str):
        fail(f"event #{i} (ph={ph}): async event without id")
    if ph in ("b", "e") and not isinstance(ev.get("cat"), str):
        fail(f"event #{i} (ph={ph}): async event without cat")
    if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
        fail(f"event #{i}: X event without dur")
    if ph == "X" and ev["dur"] < 0:
        fail(f"event #{i}: negative duration {ev['dur']}")


def check_async_balance(events: list) -> dict:
    """Returns span id -> (begin_ts, end_ts) for balanced async pairs."""
    open_spans: dict = {}
    spans: dict = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("b", "e"):
            continue
        key = (ev["cat"], ev["id"])
        if ph == "b":
            if key in open_spans:
                fail(f"event #{i}: async begin for already-open span {key}")
            open_spans[key] = ev["ts"]
        else:
            if key not in open_spans:
                fail(f"event #{i}: async end without begin for span {key}")
            begin = open_spans.pop(key)
            if ev["ts"] < begin:
                fail(f"event #{i}: span {key} ends at {ev['ts']} before "
                     f"its begin at {begin}")
            spans[ev["id"]] = (begin, ev["ts"])
    if open_spans:
        fail(f"{len(open_spans)} async span(s) never ended, e.g. "
             f"{next(iter(open_spans))}")
    return spans


def check_stage_containment(events: list, spans: dict) -> dict:
    """Returns span id -> set of stage names found inside it."""
    stages_by_span: dict = {}
    eps = 1e-6  # float microseconds: tolerate rounding at the edges
    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue
        trace_id = (ev.get("args") or {}).get("trace")
        if trace_id is None:
            continue
        name = ev.get("name", "")
        if trace_id in spans:
            begin, end = spans[trace_id]
            if ev["ts"] < begin - eps or ev["ts"] + ev["dur"] > end + eps:
                fail(f"event #{i}: stage {name!r} [{ev['ts']}, "
                     f"{ev['ts'] + ev['dur']}] outside its parent span "
                     f"{trace_id} [{begin}, {end}]")
        stages = stages_by_span.setdefault(trace_id, {})
        stages[name] = max(stages.get(name, 0.0), ev["dur"])
    return stages_by_span


def check_required_spans(spans: dict, stages_by_span: dict) -> str:
    """At least one span must show the full causal lifecycle."""
    required = {"propose_wait", "quorum_wait", "merge_skew_wait"}
    best_missing = None
    for span_id, (begin, end) in spans.items():
        stages = stages_by_span.get(span_id, {})
        missing = required - set(stages)
        if missing:
            if best_missing is None or len(missing) < len(best_missing):
                best_missing = missing
            continue
        if stages["merge_skew_wait"] <= 0:
            continue  # a zero hold: streams were perfectly aligned
        return (f"complete lifecycle on span {span_id}: "
                + ", ".join(f"{k}={stages[k]:.3f}us"
                            for k in sorted(stages) if k in STAGE_EVENTS))
    if not spans:
        fail("--require-spans: trace contains no async spans at all")
    fail("--require-spans: no span has propose_wait + quorum_wait + a "
         f"nonzero merge_skew_wait (closest was missing {best_missing})")
    return ""  # unreachable


def main(argv: list) -> int:
    require_spans = "--require-spans" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = paths[0]
    try:
        doc = load(path)
        events = doc["traceEvents"]
        for i, ev in enumerate(events):
            check_common_fields(i, ev)
        spans = check_async_balance(events)
        stages_by_span = check_stage_containment(events, spans)
        detail = ""
        if require_spans:
            detail = check_required_spans(spans, stages_by_span)
    except Failure as e:
        print(f"FAIL {path}: {e}", file=sys.stderr)
        return 1
    n_stage = sum(len(v) for v in stages_by_span.values())
    print(f"OK {path}: {len(events)} events, {len(spans)} spans, "
          f"{n_stage} contained stage intervals")
    if detail:
        print(f"   {detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
