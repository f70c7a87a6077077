#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md in this directory).

Builds the driver from source on first use, runs one workload for a
fixed wall-clock budget as a sequence of fresh driver processes (see
rep_schedule), checks the correctness gates and prints one JSON result
as the last line of stdout:

    python3 bench/e2e/run.py --workload kv-split --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. The exit code is 0 only when every gate passed.

Other modes:
    --suite --seeds 1,2 --out FILE   every workload, --trace 0 and 1, per
                                     seed; writes a result set for compare.py
    --check-catalogue                the driver's catalogue and
                                     BENCHMARK.json must agree
    --write-spec                     regenerate BENCHMARK.json
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = ROOT / "BENCHMARK.json"

# Wall-clock budget of one run and the regression bound of each
# end-to-end metric, as a share of the parent's median. The README
# records the measured spread behind each bound.
RUN_SECONDS = 25
BOUNDS = {
    "setup_s": 0.25,
    "host_ms_per_vs.t1": 0.25,
    "peak_rss_mb": 0.05,
    "ops_per_vs": 0.01,
    "lat_p50_ms": 0.05,
    "lat_p99_ms": 0.05,
}

# Host wall-time fields taken from the fastest rep rather than the median.
# Other processes on the host only ever add wall time, and here they do
# so for minutes at a time, so the fastest of a run's reps tracks the
# uncontended cost best (README: "Measured spread"). Set-up time stays a
# median, so that work moved into set-up shows even when it varies.
FASTEST_REP = {"host_ms_per_vs", "ns_per_event", "phase_steady_ms_per_vs",
               "phase_disrupt_ms_per_vs"}
# The fastest rep is taken over exactly the first FASTEST_OF[workload]
# reps of an engine. The minimum of more samples reads lower, so if the
# count followed the time budget, faster code would get more reps and a
# lower minimum on top of its real gain. The counts are the serial reps
# that fit in a RUN_SECONDS run on the recording host; they stay fixed.
FASTEST_OF = {"kv-split": 4, "kv-readmix": 6, "bcast-durable": 16, "geo-wan": 5}


def log(msg):
    print(f"[e2e] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit("e2e: no src/ tree next to the benchmark; cannot build the driver")
    # Compiler temporaries stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(out), "-j", "4", "--target", "epx_bench"],
                   check=True, stdout=sys.stderr, env=env)
    build_type = cmake_cache(out).get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        log(f"warning: CMAKE_BUILD_TYPE is '{build_type}', not Release; "
            "host-time metrics are not comparable")
    return out / "epx_bench"


def cmake_cache(out):
    values = {}
    cache = out / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, _, value = line.partition("=")
                values[key.split(":", 1)[0]] = value
    return values


def catalogue(binary):
    out = subprocess.run([str(binary), "--list"], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def make_spec(cat):
    """BENCHMARK.json as the catalogue and BOUNDS define it."""
    def metric(m, bounded):
        entry = {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        if bounded:
            entry["bound"] = BOUNDS[m["name"]]
        return entry
    return {
        "command": ["python3", "bench/e2e/run.py"],
        "paths": ["bench/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in cat["workloads"]],
        "end_to_end": [metric(m, True) for m in cat["metrics"] if m["end_to_end"]],
        "per_layer": [metric(m, False) for m in cat["metrics"] if not m["end_to_end"]],
    }


def spec_text(cat):
    return json.dumps(make_spec(cat), indent=2) + "\n"


def check_catalogue(cat):
    """Fails when BENCHMARK.json and the driver's catalogue disagree."""
    expected = spec_text(cat)
    actual = SPEC.read_text() if SPEC.exists() else ""
    if json.loads(expected) != (json.loads(actual) if actual else None):
        log("BENCHMARK.json does not match the driver catalogue and run.py bounds; "
            "regenerate it with: python3 bench/e2e/run.py --write-spec")
        return False
    return True


# --------------------------------------------------------------------------
# One run: reps of fresh driver processes, aggregated.
# --------------------------------------------------------------------------

def run_rep(binary, workload, seed, threads, trace_out=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--threads={threads}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    try:
        # A rep takes seconds; the limit only catches a hung driver.
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        log(f"driver timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(f"driver failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def rep_schedule(trace):
    """Engine (shard count) of each rep, in order. The end-to-end metrics
    come from serial reps, so --trace 0 runs one 4-shard rep for the
    digest check and serial reps after it. --trace 1 alternates serial
    and 4-shard reps, swapping which goes first each pair so drift hits
    both engines alike."""
    if not trace:
        yield 4
        while True:
            yield 1
    pair = 0
    while True:
        yield from ((1, 4) if pair % 2 == 0 else (4, 1))
        pair += 1


def measure(binary, cat, workload, seed, seconds, trace):
    """Runs the reps of one (workload, seed, trace) and aggregates them."""
    reps = {1: [], 4: []}
    traced = None
    failures = []
    start = time.monotonic()
    if trace:
        trace_dir = build_dir() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = run_rep(binary, workload, seed, 1, trace_dir / f"{workload}.seed{seed}.json")
        if traced is None:
            failures.append("traced run failed")
    fastest_of = FASTEST_OF[workload]
    need = {1: fastest_of, 4: fastest_of if trace else 1}
    loop_start = time.monotonic()
    for n, threads in enumerate(rep_schedule(trace)):
        # Once each engine has its fixed reps, start another only while
        # it is expected to end by the budget plus half a rep.
        now = time.monotonic()
        if (all(len(reps[t]) >= k for t, k in need.items())
                and now - start + (now - loop_start) / n / 2 >= seconds):
            break
        rec = run_rep(binary, workload, seed, threads)
        if rec is None:
            failures.append(f"T:{threads} rep {n} failed")
            break
        reps[threads].append(rec)

    records = reps[1] + reps[4] + ([traced] if traced else [])
    reference = reps[1][0]["digest"] if reps[1] else None
    failed_ops = 0
    for rec in records:
        bad_gates = [g for g in rec["gates"] if not g["pass"]]
        kind = "traced" if rec["traced"] else f"T:{rec['threads']}"
        for g in bad_gates:
            failures.append(f"{kind} gate {g['name']}: {g['detail']}")
        if rec["digest"] != reference:
            failures.append(f"{kind} digest {rec['digest']} != serial {reference}")
        if bad_gates or rec["digest"] != reference:
            failed_ops += int(rec["metrics"]["ops"])
    attempted = sum(int(rec["metrics"]["ops"]) for rec in records)

    def field(threads, name):
        if name in FASTEST_REP:
            return min(r["metrics"][name] for r in reps[threads][:fastest_of])
        return median([r["metrics"][name] for r in reps[threads]])

    metrics = {}
    complete = reps[1] and reps[4] and (traced is not None or not trace)
    for m in cat["metrics"] if complete else []:
        if m["end_to_end"] == bool(trace):
            continue
        source, name = m["source"], m["field"]
        if source == "t1":
            value = field(1, name)
        elif source == "t4":
            value = field(4, name)
        elif source == "virtual":
            value = reps[1][0]["metrics"][name]
        elif source == "traced":
            value = traced["metrics"][name]
        elif m["name"] == "sim.speedup.t4":
            value = field(1, name) / field(4, name)
        elif m["name"] == "obs.trace_overhead_pct":
            # One traced run against the typical serial rep, not the fastest.
            serial = median([r["metrics"][name] for r in reps[1]])
            value = 100.0 * (traced["metrics"][name] / serial - 1.0)
        else:
            raise SystemExit(f"e2e: no aggregation for metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    expected = [m["name"] for m in cat["metrics"] if m["end_to_end"] != bool(trace)]
    if not failures and sorted(metrics) != sorted(expected):
        failures.append("missing metrics: " + ", ".join(sorted(set(expected) - set(metrics))))
    for f in failures:
        log(f"FAIL {workload} seed {seed}: {f}")
    result = {"correct": not failures, "attempted": max(attempted, 1),
              "failed": failed_ops if failures else 0, "metrics": metrics}
    detail = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "elapsed_s": time.monotonic() - start, "failures": failures,
              "reps": {"t1": len(reps[1]), "t4": len(reps[4])},
              "records": records}
    return result, detail


def host_info():
    cache = cmake_cache(build_dir())
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except OSError:
            pass
    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""), "compiler": version}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--seeds", default="1", help="--suite: comma-separated seeds")
    ap.add_argument("--traces", default="0,1", help="--suite: trace modes to run")
    ap.add_argument("--out", help="--suite: result-set file to write")
    ap.add_argument("--check-catalogue", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--bench-bin", help="use this driver binary instead of building one")
    args = ap.parse_args()

    binary = Path(args.bench_bin) if args.bench_bin else build()
    cat = catalogue(binary)
    if args.write_spec:
        SPEC.write_text(spec_text(cat))
        log(f"wrote {SPEC}")
        return 0
    if not check_catalogue(cat):
        return 1
    if args.check_catalogue:
        return 0

    names = [w["name"] for w in cat["workloads"]]
    if args.suite:
        runs = []
        for seed in [int(s) for s in args.seeds.split(",")]:
            for trace in [int(t) for t in args.traces.split(",")]:
                for workload in names:
                    result, detail = measure(binary, cat, workload, seed, args.seconds, trace)
                    log(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                        f"reps={detail['reps']} in {detail['elapsed_s']:.1f}s")
                    records = detail.pop("records")
                    detail["digests"] = sorted({r["digest"] for r in records})
                    detail["rep_values"] = {
                        f"t{t}": {k: [r["metrics"][k] for r in records
                                      if r["threads"] == t and not r["traced"]]
                                  for k in ("setup_s", "host_ms_per_vs", "peak_rss_mb")}
                        for t in (1, 4)}
                    runs.append({**detail, **result})
        result_set = {"host": host_info(), "runs": runs}
        if args.out:
            Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
            log(f"wrote {args.out}")
        return 0 if all(r["correct"] for r in runs) else 1

    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    result, _ = measure(binary, cat, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
