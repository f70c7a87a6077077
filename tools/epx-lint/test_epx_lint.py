#!/usr/bin/env python3
"""Fixture tests for epx-lint.

Each `tests/lint_fixtures/rN_bad*` file must trip rule RN (and only RN is
run against it, so unrelated deliberate noise can't mask a regression);
each `rN_clean*` counterpart must lint clean. `suppressed.cc` must exit 0
while reporting its waivers. Run via ctest (`lint_fixtures`) or directly:

    python3 tools/epx-lint/test_epx_lint.py [--root /path/to/repo]
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "epx_lint.py")

# (fixture basename, rule, minimum violations). The minimum is the number
# of deliberately-planted sites; exact counts are asserted so a checker
# that starts double-reporting (or goes blind to one site) fails loudly.
BAD = [
    ("r1_bad.cc", "R1", 8),
    ("r2_bad.cc", "R2", 4),
    ("r3_bad.cc", "R3", 5),
    # Same raw slab storage as slot_log but scoped to a non-allowlisted
    # path: the R3 exemption must not travel with the code.
    ("r3_slotlog_bad.cc", "R3", 2),
    # The acceptor_store journal slab, likewise scoped off-allowlist.
    ("r3_storage_bad.cc", "R3", 2),
    ("r4_bad_messages.h", "R4", 4),
    ("r5_bad.cc", "R5", 4),
    ("r6_bad.cc", "R6", 3),
    ("r6_bad_status.h", "R6", 2),
    ("r7_bad.cc", "R7", 5),
    ("r8_bad_messages.h", "R8", 5),
    ("r9_bad.cc", "R9", 2),
    ("r10_bad.cc", "R10", 3),
    # The telemetry plane's meta-names ride the same registry: an
    # undocumented agent counter and a scrape watch of a typoed name.
    ("r10_telemetry_bad.cc", "R10", 2),
    ("r11_bad.cc", "R11", 2),
]

CLEAN = [
    ("r1_clean.cc", "R1"),
    ("r2_clean.cc", "R2"),
    ("r3_clean.cc", "R3"),
    # Pins itself to src/paxos/slot_log.cc via the path-override
    # directive, so its raw slab storage rides the allowlist entry.
    ("r3_slotlog_clean.cc", "R3"),
    # Pins itself to src/paxos/acceptor_store.cc the same way.
    ("r3_storage_clean.cc", "R3"),
    ("r4_clean_messages.h", "R4"),
    ("r5_clean.cc", "R5"),
    ("r6_clean.cc", "R6"),
    ("r7_clean.cc", "R7"),
    ("r8_clean_messages.h", "R8"),
    ("r9_clean.cc", "R9"),
    ("r10_clean.cc", "R10"),
    ("r11_clean.cc", "R11"),
]

# Seeded mutations: (label, file under src/, old text, new text, rule,
# expected message fragment). Each one plants a realistic protocol bug in
# a copy of src/ and asserts the rule catches exactly that bug — the
# "would the analyzer have caught this refactor?" proof.
MUTATIONS = [
    ("R4 catches a field dropped from a fields list",
     "paxos/messages.h",
     "    io.u32(m.accept_count);\n",
     "",
     "R4", "AcceptMsg: field 'accept_count'"),
    ("R8 catches a deleted handler case",
     "paxos/acceptor.cc",
     "    case MsgType::kTrimRequest:\n"
     "      handle_trim(static_cast<const TrimRequestMsg&>(*msg));\n"
     "      break;\n",
     "",
     "R8", "kTrimRequest"),
    ("R9 catches a send hoisted above sync()",
     "paxos/acceptor.cc",
     "  store_->sync([this, from, reply = std::move(reply)]() mutable {",
     "  send(from, reply);\n"
     "  store_->sync([this, from, reply = std::move(reply)]() mutable {",
     "R9", "not behind store_->sync()"),
    ("R10 catches a typoed metric name",
     "paxos/acceptor.cc",
     'counter("acceptor.decisions"',
     'counter("acceptor.decisionz"',
     "R10", "acceptor.decisionz"),
    ("R11 catches a worker-context touch outside the owner set",
     "sim/network.cc",
     "void Network::pump(NodeId to) {",
     "void Network::pump(NodeId to) {\n  exchange_scratch_.clear();",
     "R11", "exchange_scratch_"),
]


def run_lint(root, fixture, rule):
    cmd = [sys.executable, LINT, "--root", root, "--assume-src", "--json", "--rules", rule,
           os.path.join(root, "tests", "lint_fixtures", fixture)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode == 2:
        raise RuntimeError(f"epx-lint internal error on {fixture}:\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(HERE)),
                    help="repository root (default: two levels above this file)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)

    failures = []

    def check(cond, label, detail=""):
        status = "ok" if cond else "FAIL"
        print(f"  [{status}] {label}" + (f"  ({detail})" if detail and not cond else ""))
        if not cond:
            failures.append(f"{label}: {detail}")

    for fixture, rule, want in BAD:
        rc, rep = run_lint(root, fixture, rule)
        got = rep["violations"]
        print(f"{fixture} [{rule}]:")
        check(rc == 1, f"{fixture} exits 1", f"exit={rc}")
        check(len(got) == want, f"{fixture} reports exactly {want} {rule} violations",
              f"got {len(got)}: " + "; ".join(v["message"] for v in got))
        check(all(v["rule"] == rule for v in got), f"{fixture} violations all tagged {rule}",
              str(sorted({v['rule'] for v in got})))

    for fixture, rule in CLEAN:
        rc, rep = run_lint(root, fixture, rule)
        print(f"{fixture} [{rule}]:")
        check(rc == 0 and not rep["violations"], f"{fixture} lints clean",
              "; ".join(v["message"] for v in rep["violations"]))

    # Suppression directives: violations are waived but surface in the report.
    rc, rep = run_lint(root, "suppressed.cc", "R1,R3")
    print("suppressed.cc [R1,R3]:")
    check(rc == 0 and not rep["violations"], "suppressed.cc exits 0 with no violations",
          f"exit={rc}, violations={rep['violations']}")
    waived = sorted(v["rule"] for v in rep["suppressed"])
    check(waived == ["R1", "R3"], "suppressed.cc reports exactly the R1+R3 waivers",
          str(waived))

    # Exit codes and the JSON schema are part of the tool's contract (CI
    # scripts branch on them); pin all three codes and the top-level keys.
    print("exit codes / JSON schema:")
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, "--rules", "R99", os.path.join(root, "src")],
        capture_output=True, text=True)
    check(proc.returncode == 2, "unknown rule exits 2", f"exit={proc.returncode}")
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, os.path.join(root, "no_such_dir_xyz")],
        capture_output=True, text=True)
    check(proc.returncode == 2, "nonexistent path exits 2", f"exit={proc.returncode}")
    rc, rep = run_lint(root, "r8_clean_messages.h", "R8")
    check(rc == 0, "clean scan exits 0", f"exit={rc}")
    want_keys = {"files_scanned", "violations", "suppressed", "registry_drift"}
    check(want_keys <= set(rep), "JSON report carries the pinned top-level keys",
          f"missing {sorted(want_keys - set(rep))}")
    rc, _ = run_lint(root, "r8_bad_messages.h", "R8")
    check(rc == 1, "violating scan exits 1", f"exit={rc}")

    # Seeded mutations: prove the flow rules catch injected protocol bugs
    # in the real tree, not just in fixtures.
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(root, "src"), os.path.join(tmp, "src"))
        for label, rel, old, new, rule, fragment in MUTATIONS:
            path = os.path.join(tmp, "src", rel)
            with open(path, encoding="utf-8") as f:
                original = f.read()
            print(f"mutation [{rule}] {label}:")
            check(old in original, f"{rule} mutation anchor present in src/{rel}",
                  f"anchor not found: {old[:60]!r}")
            if old not in original:
                continue
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(old, new, 1))
            proc = subprocess.run(
                [sys.executable, LINT, "--root", tmp, "--json", "--rules", rule,
                 os.path.join(tmp, "src")],
                capture_output=True, text=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(original)
            rep = json.loads(proc.stdout) if proc.stdout else {}
            hits = [v for v in rep.get("violations", [])
                    if fragment in v["message"]]
            check(proc.returncode == 1 and hits, label,
                  f"exit={proc.returncode}, violations=" +
                  "; ".join(v["message"] for v in rep.get("violations", [])))

    # Registry drift: the committed names.json/NAMES.md/message_flow.* must
    # match what the tool would emit today (positive), and a corrupted copy
    # must be flagged with exit 1 (negative).
    print("registry drift:")
    # No explicit paths: artifacts are canonically emitted from the default
    # scan set (src tests bench), so drift must be checked against the same.
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, "--rules", "R8", "--json", "--check-registry"],
        capture_output=True, text=True)
    rep = json.loads(proc.stdout) if proc.stdout else {}
    check(proc.returncode == 0 and not rep.get("registry_drift"),
          "committed registry artifacts are current",
          f"exit={proc.returncode}, drift={rep.get('registry_drift')}")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [sys.executable, LINT, "--root", root, "--rules", "R8", "--emit-registry", tmp],
            capture_output=True, text=True, check=True)
        with open(os.path.join(tmp, "names.json"), "a", encoding="utf-8") as f:
            f.write("\n")
        proc = subprocess.run(
            [sys.executable, LINT, "--root", root, "--rules", "R8", "--json",
             "--check-registry", tmp],
            capture_output=True, text=True)
        rep = json.loads(proc.stdout) if proc.stdout else {}
        check(proc.returncode == 1 and "names.json" in rep.get("registry_drift", []),
              "stale registry artifact is flagged with exit 1",
              f"exit={proc.returncode}, drift={rep.get('registry_drift')}")

    # The real tree must be violation-free under every rule — this is the
    # same gate CI runs, kept here so `ctest` alone catches regressions.
    cmd = [sys.executable, LINT, "--root", root, "--json"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    rep = json.loads(proc.stdout)
    print("repo scan (src tests bench):")
    check(proc.returncode == 0, "repo tree lints clean",
          "; ".join(v["message"] for v in rep.get("violations", [])))
    check(rep["files_scanned"] > 100, "repo scan covered the tree",
          f"only {rep['files_scanned']} files")

    if failures:
        print(f"\n{len(failures)} check(s) failed:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nall lint fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
