#!/usr/bin/env python3
"""Compares two result sets written by `run.py --suite --out FILE`.

    python3 bench/e2e/compare.py parent.json change.json [--claim METRIC@WORKLOAD ...]

For every (metric, workload) it prints each side's median and quartiles
over its runs and, for the end-to-end metrics, a verdict against the
metric's bound in BENCHMARK.json. The per-layer metrics in GUARDED get
a verdict against the bound given there:

    within      the change's median is within the bound of the parent's
    worse       worse than the parent's median by more than the bound
    better      better by more than the bound
    unresolved  a side's quartile spread exceeds the bound, and the runs
                do not all fall on one side of each other

The `same` column says whether runs with the same (workload, seed) read
exactly alike on both sides: virtual-time metrics must, host-time
metrics will not.

--claim METRIC@WORKLOAD applies the gain rule: the change must win at
least 9 of every 10 seed-matched pairs (ties count for neither side),
over at least 10 pairs, and the medians must differ by more than the
parent's quartile spread. A higher failed_ops_pct on any workload, or
a run whose correctness gates failed, is flagged.

Exit code: 0 when nothing is worse, flagged or claimed-but-unmet.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

# Per-layer metrics that also get a verdict: (bound, kind). BENCHMARK.json
# bounds only metrics that every workload reports as a non-zero value, so
# these four sit in its per-layer list (README: "Differences from the
# original design"), but a regression in them is still a regression.
# "share" bounds are relative to the parent's median like BENCHMARK.json's;
# "points" bounds are absolute, for percentages that are 0 on some runs.
GUARDED = {
    "host_ms_per_vs.t4": (0.15, "share"),
    "failed_ops_pct": (0.05, "points"),
    "dip_pct": (2.0, "points"),
    "outage_ms": (0.05, "share"),
}


def load(path):
    return json.loads(Path(path).read_text())["runs"]


def values(runs, metric, workload):
    """{seed: value} for the runs of `workload` that report `metric`."""
    return {r["seed"]: r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]}


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def rel(a, b):
    return (b - a) / abs(a) if a else (0.0 if a == b else float("inf"))


def spread(vals, points=False):
    """Quartile distance, in points or as a share of the median."""
    q1, med, q3 = quartiles(vals)
    if points:
        return q3 - q1
    return (q3 - q1) / abs(med) if med else 0.0


def all_better(a, b, better):
    """Every run of b beats every run of a."""
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def verdict(a, b, better, bound, points=False):
    ma, mb = quartiles(a)[1], quartiles(b)[1]
    change = mb - ma if points else rel(ma, mb)
    worse_by = change if better == "lower" else -change
    if max(spread(a, points), spread(b, points)) > bound:
        if all_better(a, b, better):
            return "better"
        if all_better(b, a, better):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def claim(a, b, better):
    """(holds, text) for the 9-of-10-pairs gain rule."""
    seeds = sorted(set(a) & set(b))
    if len(seeds) < 10:
        return False, f"{len(seeds)} seed-matched pairs; the rule needs at least 10"
    wins = sum((b[s] < a[s]) if better == "lower" else (b[s] > a[s]) for s in seeds)
    qa1, ma, qa3 = quartiles(list(a.values()))
    _, mb, _ = quartiles(list(b.values()))
    holds = wins >= 0.9 * len(seeds) and abs(mb - ma) > qa3 - qa1
    return holds, (f"change wins {wins}/{len(seeds)} pairs; medians {ma:.6g} -> {mb:.6g}, "
                   f"parent quartile spread {qa3 - qa1:.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    a_runs, b_runs = load(args.parent), load(args.change)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    problems = 0

    print(f"{'metric':34s} {'workload':14s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'change':>9s} {'same':>4s}  verdict")
    for m, bounded in metrics:
        for w in workloads:
            a, b = values(a_runs, m["name"], w), values(b_runs, m["name"], w)
            if not a or not b:
                continue
            av, bv = list(a.values()), list(b.values())
            shared = sorted(set(a) & set(b))
            same = "-" if not shared else ("yes" if all(a[s] == b[s] for s in shared) else "no")
            v = ""
            # A guarded metric that reads 0 on every run (dip_pct without a
            # reconfiguration, outage_ms without a fault) is not reported
            # by that workload.
            if (bounded or m["name"] in GUARDED) and any(av + bv):
                bound, kind = (m["bound"], "share") if bounded else GUARDED[m["name"]]
                v = verdict(av, bv, m["better"], bound, kind == "points")
                problems += v == "worse"
                v += f" (bound {bound:.0%})" if kind == "share" else f" (bound +{bound:g} points)"
            qa, qb = quartiles(av), quartiles(bv)
            print(f"{m['name']:34s} {w:14s} {'%.4g/%.4g/%.4g' % qa:>30s} "
                  f"{'%.4g/%.4g/%.4g' % qb:>30s} {rel(qa[1], qb[1]):>+9.2%} {same:>4s}  {v}")

    for w in workloads:
        a = values(a_runs, "failed_ops_pct", w)
        b = values(b_runs, "failed_ops_pct", w)
        if not a or not b:
            continue
        ma, mb = quartiles(list(a.values()))[1], quartiles(list(b.values()))[1]
        if mb > ma:
            print(f"FLAG failed_ops_pct rose on {w}: {ma:.6g}% -> {mb:.6g}%")
            problems += 1
    for name, runs in (("parent", a_runs), ("change", b_runs)):
        for r in runs:
            if not r["correct"] or r["failed"]:
                print(f"FLAG {name} run {r['workload']} seed {r['seed']} trace {r['trace']} "
                      f"failed its correctness gates: {r.get('failures')}")
                problems += 1

    by_name = {m["name"]: m for m, _ in metrics}
    for c in args.claim:
        metric, _, workload = c.partition("@")
        if metric not in by_name or workload not in workloads:
            ap.error(f"unknown claim {c}")
        holds, text = claim(values(a_runs, metric, workload), values(b_runs, metric, workload),
                            by_name[metric]["better"])
        print(f"CLAIM {c}: {'holds' if holds else 'NOT MET'} - {text}")
        problems += not holds
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
