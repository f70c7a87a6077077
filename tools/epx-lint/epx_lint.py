#!/usr/bin/env python3
"""epx-lint: repo-aware static analysis for the Elastic Paxos reproduction.

Mechanically enforces the simulator's determinism and lifetime invariants
(rules R1-R11, see tools/epx-lint/README.md). Every rule runs on a
dependency-free lexer over comment/string-stripped source, so the tool
needs nothing beyond the Python standard library.

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.

Suppression: a line (or the line immediately above it) may carry
`// epx-lint: allow(RN[,RM...]): <reason>` to waive named rules for that
line. The reason is mandatory; suppressions are listed in the report so
reviews can push back on them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Rule metadata
# --------------------------------------------------------------------------

RULES = {
    "R1": "no wall-clock / nondeterministic sources in src/ (sim time and util/rng only)",
    "R2": "no iteration over unordered containers (hash order leaks into behaviour)",
    "R3": "no naked new/delete/malloc outside the pool and event-queue slabs",
    "R4": "every data member of a wire struct (one with a `fields` list) appears "
          "in that list",
    "R5": "no raw process/role pointer captured into timers that outlive the owner",
    "R6": "Status/Result stay [[nodiscard]] and Status-returning calls are consumed",
    "R7": "no unsynchronized static-duration mutable state in src/sim/ (shards run "
          "handlers concurrently; such state must be const, thread_local, atomic, "
          "or one of the locked cross-shard channel types)",
    "R8": "message-flow exhaustiveness: every MsgType kind has a wire struct with a "
          "fields list, a send site, a codec registration, and a handler case in some role "
          "(dead or unhandled message kinds are protocol rot)",
    "R9": "durability-barrier coverage: in any class owning an AcceptorStore, "
          "every send reachable from an on_* handler must sit behind a "
          "store->sync() barrier (acceptor state must hit the journal before "
          "it escapes to the wire)",
    "R10": "observability-name registry: metric/span/monitor names are published "
           "as string literals, documented in NAME_DOCS, and never consumed "
           "without a publisher (names.json is the generated registry)",
    "R11": "cross-shard member freeze: members annotated "
           "`epx-lint: cross-shard(owners...)` in src/sim/ are touched only by "
           "their reviewed owner functions (worker-context code must go through "
           "the staged-channel paths)",
}

# Files (repo-relative, prefix match) exempt per rule: the places that
# legitimately own the banned construct.
ALLOWED = {
    "R1": ("src/util/logging.", "src/util/rng."),
    "R2": ("src/util/sorted.h",),
    "R3": ("src/net/pool.", "src/sim/event_queue.", "src/paxos/slot_log.",
           "src/paxos/acceptor_store."),
    "R5": ("src/sim/",),
    # metrics.* is the registry implementation itself; span.cc publishes
    # through its kMetricNames table (the table's literals ARE collected
    # as the published span-stage names, see flow-model collection).
    "R10": ("src/obs/metrics.", "src/obs/span."),
}

# ---------------------------------------------------------------------------
# R10 name registry: every published observability name must appear here
# with a one-line doc. `--emit-registry` renders this (plus the discovered
# publish/consume sites) into names.json + NAMES.md; the lint-names-drift
# check fails CI when those artifacts go stale. Keep the dict sorted.
# ---------------------------------------------------------------------------
NAME_DOCS = {
    "acceptor.decisions": "decisions learned/forwarded by the acceptor ring",
    "acceptor.recoveries": "recovery round-trips served for lagging learners",
    "acceptor.replays": "journal entries replayed on acceptor restart",
    "client.completions": "client commands completed end-to-end",
    "client.latency": "client-observed request latency",
    "client.retries": "client commands re-submitted after timeout",
    "coord.commands": "commands sequenced by the ring coordinator",
    "coord.retries": "phase-2 retries issued by the coordinator",
    "coord.skips": "skip instances issued to keep lambda pacing",
    "coord.takeovers": "coordinator failovers (phase-1 takeovers)",
    "coord.trim": "low-water-mark instance the ring has trimmed to",
    "cpu.busy": "simulated CPU busy time per process",
    "inbox.depth": "pending messages in a process inbox",
    "kv.discarded": "KV commands discarded by non-owning partitions",
    "kv.executed": "KV commands applied to the store",
    "kv.signals": "repartition signals exchanged between KV replicas",
    "kv.snapshot_bytes": "bytes shipped in KV partition snapshots",
    "learner.delivered": "decisions delivered by stream learners",
    "learner.gap_repairs": "gap-triggered recovery requests from learners",
    "merge.discarded": "decisions dropped by deterministic merge dedup",
    "merge.scan_slots": "slot-log slots scanned by the merger pump",
    "merge.skew_wait": "time a merger waited on its slowest stream",
    "merge.subscribe_latency": "elastic subscribe completion latency",
    "monitor.violations": "invariant-monitor violations observed online",
    "net.bytes_sent": "payload bytes accepted by the network",
    "net.egress_bytes": "per-link egress bytes after bandwidth shaping",
    "net.messages_dropped": "messages dropped by loss/partition injection",
    "net.messages_sent": "messages accepted by the network",
    "registry.notifications": "watch events pushed by the registry server",
    "registry.puts": "configuration writes accepted by the registry",
    "replica.bytes": "decision payload bytes applied by replicas",
    "replica.delivered": "decisions applied by replicas",
    "slo.violations": "SLO rules fired by the telemetry monitor",
    "span.apply": "span stage: replica apply time",
    "span.client_rtt": "span stage: client-observed round trip",
    "span.durable_wait": "span stage: journal barrier wait",
    "span.e2e": "span stage: propose-to-delivery end to end",
    "span.learn_wait": "span stage: decision to learner delivery",
    "span.propose_wait": "span stage: client propose to coordinator",
    "span.quorum_wait": "span stage: phase-2 quorum wait",
    "storage.batch_writes": "journal writes coalesced by group commit",
    "storage.fsync": "journal fsync operations completed",
    "storage.fsync_bytes": "bytes made durable per fsync",
    "storage.fsync_wait": "time appends waited on the journal device",
    "storage.queue": "journal device queue depth",
    "telemetry.points": "telemetry series points ingested by the monitor",
    "telemetry.samples": "telemetry scrape samples ingested by the monitor",
    "trace.dropped": "trace events dropped by the bounded ring",
    "wal.appends": "write-ahead journal appends",
    "wal.bytes": "live bytes in the write-ahead journal",
    "wal.checkpoints": "acceptor checkpoints written",
    "wal.compactions": "journal compactions triggered by trim",
    # Invariant monitor names (MonitorViolation::monitor).
    "align": "monitor: alignment-point consistency across subscribers",
    "gap": "monitor: no instance gaps at delivery",
    "order": "monitor: per-stream delivery order matches decisions",
}

SRC_EXTS = (".cc", ".cpp", ".cxx", ".h", ".hpp")


@dataclass
class Violation:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Report:
    violations: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)
    files_scanned: int = 0


# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string and char literals, preserving line structure.

    Keeps the same number of lines and roughly the same column positions so
    reported line numbers match the original file.
    """
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string literal? Look back for R prefix.
                if i > 0 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        mode = "raw"
                        raw_delim = ")" + m.group(1) + '"'
                        out.append('"')
                        i += 1
                        continue
                mode = "string"
                out.append('"')
                i += 1
            elif c == "'":
                # Heuristic: digit separators (1'000) are not char literals.
                if i > 0 and text[i - 1].isdigit() and nxt.isdigit():
                    out.append(c)
                    i += 1
                else:
                    mode = "char"
                    out.append("'")
                    i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif mode == "raw":
            if text.startswith(raw_delim, i):
                mode = "code"
                out.append(raw_delim)
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def matching_brace(text: str, open_idx: int) -> int:
    """Index just past the brace matching text[open_idx] ('{'), or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


ALLOW_RE = re.compile(r"epx-lint:\s*allow\(([^)]*)\)\s*:?\s*(\S.*)?")

# Fixtures may pin the repo-relative path used for rule scoping, e.g.
# `// epx-lint: path(src/paxos/slot_log.cc)`, so a path-keyed allowlist
# entry can be exercised from tests/lint_fixtures/. Honored only under
# --assume-src — real tree files can never re-scope themselves.
PATH_OVERRIDE_RE = re.compile(r"epx-lint:\s*path\(([^)\s]+)\)")


def allowed_rules_for_line(raw_lines, lineno: int):
    """Rules waived on `lineno` (1-based) by a directive on it or just above."""
    waived = set()
    reasons = []
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(raw_lines):
            m = ALLOW_RE.search(raw_lines[ln - 1])
            if m:
                waived.update(r.strip().upper() for r in m.group(1).split(","))
                reasons.append((m.group(2) or "").strip())
    return waived, "; ".join(r for r in reasons if r)


class FileCtx:
    """A scanned file: raw text, stripped text, line tables."""

    def __init__(self, path: str, rel: str):
        self.path = path
        self.rel = rel
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.splitlines()
        self.code = strip_comments_and_strings(self.raw)
        self.code_lines = self.code.splitlines()


@dataclass
class FlowModel:
    """Repo-wide protocol-flow model extracted by the epx-flow pass.

    Built incrementally while files are scanned; consumed by the
    whole-model rules R8/R10 and by the registry/graph emitters.
    """
    # kind -> (ctx, line, tag value) from the `enum class MsgType` body.
    enum_kinds: dict = field(default_factory=dict)
    # struct name -> {"kind", "ctx", "line", "fields"} from */messages.h.
    structs: dict = field(default_factory=dict)
    kind_struct: dict = field(default_factory=dict)    # kind -> struct name
    sends: dict = field(default_factory=dict)          # kind -> set of rels
    handlers: dict = field(default_factory=dict)       # kind -> set of rels
    registrations: dict = field(default_factory=dict)  # kind -> set of rels
    # name -> {"kind", "publishers": set of rels}
    published: dict = field(default_factory=dict)
    publish_nonliteral: list = field(default_factory=list)  # (ctx, line, what)
    consumed: dict = field(default_factory=dict)       # name -> set of rels
    consume_sites: list = field(default_factory=list)  # (name, ctx, line)

    def add_publish(self, name: str, kind: str, rel: str):
        ent = self.published.setdefault(name, {"kind": kind, "publishers": set()})
        ent["publishers"].add(rel)

    def add_consume(self, name: str, ctx, line: int):
        self.consumed.setdefault(name, set()).add(ctx.rel)
        self.consume_sites.append((name, ctx, line))


class Linter:
    def __init__(self, root: str, rules, assume_src: bool, full_src: bool = False):
        self.root = os.path.abspath(root)
        self.rules = rules
        self.assume_src = assume_src
        self.full_src = full_src
        self.report = Report()
        self.ctx_cache = {}
        self.flow = FlowModel()

    # -- plumbing ----------------------------------------------------------
    def ctx(self, path: str) -> FileCtx:
        path = os.path.abspath(path)
        if path not in self.ctx_cache:
            rel = os.path.relpath(path, self.root)
            self.ctx_cache[path] = FileCtx(path, rel)
        return self.ctx_cache[path]

    def effective_rel(self, ctx: FileCtx) -> str:
        """Path used for rule scoping; --assume-src maps fixtures into src/
        (or to an explicit `epx-lint: path(...)` override)."""
        if self.assume_src and not ctx.rel.startswith("src/"):
            m = PATH_OVERRIDE_RE.search(ctx.raw)
            if m:
                return m.group(1)
            return "src/" + os.path.basename(ctx.rel)
        return ctx.rel

    def exempt(self, rule: str, rel: str) -> bool:
        return any(rel.startswith(p) for p in ALLOWED.get(rule, ()))

    def emit(self, rule: str, ctx: FileCtx, lineno: int, message: str):
        waived, reason = allowed_rules_for_line(ctx.raw_lines, lineno)
        v = Violation(rule, ctx.rel, lineno, message)
        if rule in waived:
            v.message += f"  [suppressed: {reason or 'no reason given'}]"
            self.report.suppressed.append(v)
        else:
            self.report.violations.append(v)

    # -- include graph (for R2's type database) ----------------------------
    INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)

    def repo_includes(self, ctx: FileCtx):
        """Transitive repo-local includes of `ctx` (paths resolved via src/)."""
        seen = set()
        work = [ctx.path]
        while work:
            p = work.pop()
            if p in seen or not os.path.exists(p):
                continue
            seen.add(p)
            c = self.ctx(p)
            for inc in self.INCLUDE_RE.findall(c.raw):
                for base in (os.path.join(self.root, "src"), os.path.dirname(p),
                             self.root):
                    cand = os.path.normpath(os.path.join(base, inc))
                    if os.path.exists(cand) and cand.startswith(self.root):
                        work.append(cand)
                        break
        seen.discard(ctx.path)
        return [self.ctx(p) for p in sorted(seen)]

    # ----------------------------------------------------------------------
    # R1: nondeterministic sources
    # ----------------------------------------------------------------------
    R1_PATTERNS = [
        (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock (wall clock)"),
        (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock (host clock)"),
        (re.compile(r"\bhigh_resolution_clock\b"), "std::chrono::high_resolution_clock"),
        # The lookbehind skips member calls (`hooks_.clock()`) and foreign
        # qualification (`myns::rand`); the optional prefix re-admits the
        # std::/global-scope spellings the lookbehind would otherwise block.
        (re.compile(r"(?<![\w.:>])(?:std\s*::\s*|::\s*)?time\s*\(\s*(?:nullptr|NULL|0|&)"),
         "::time() (wall clock)"),
        (re.compile(r"(?<![\w.:>])(?:std\s*::\s*|::\s*)?clock\s*\(\s*\)"), "::clock()"),
        (re.compile(r"(?<![\w.:>])(?:std\s*::\s*|::\s*)?s?rand\s*\("),
         "rand()/srand() (global, seed-unfriendly)"),
        (re.compile(r"\brandom_device\b"), "std::random_device (hardware entropy)"),
        (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937 (use util/rng's seeded Rng)"),
        (re.compile(r"(?<![\w.:>])(?:std\s*::\s*|::\s*)?getenv\s*\("),
         "getenv() (environment-dependent behaviour)"),
    ]

    def check_r1(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not rel.startswith("src/") or self.exempt("R1", rel):
            return
        for lineno, line in enumerate(ctx.code_lines, 1):
            for pat, what in self.R1_PATTERNS:
                if pat.search(line):
                    self.emit("R1", ctx, lineno,
                              f"nondeterministic source: {what}; handlers must use "
                              "sim time (Process::now) and util/rng")

    # ----------------------------------------------------------------------
    # R2: unordered container iteration
    # ----------------------------------------------------------------------
    UNORDERED_DECL_RE = re.compile(
        r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
    SORTED_WRAPPERS = ("sorted_keys", "sorted_items")

    def unordered_names(self, ctx: FileCtx):
        """Names declared in `ctx` with an unordered container type.

        Handles members, locals, params and `using X = std::unordered_map<..>`
        aliases (one level).
        """
        names = set()
        aliases = set()
        text = ctx.code
        for m in re.finditer(r"\busing\s+(\w+)\s*=\s*((?:std\s*::\s*)?unordered_\w+\s*<)",
                             text):
            aliases.add(m.group(1))
        decl_types = [self.UNORDERED_DECL_RE] + [
            re.compile(r"\b" + re.escape(a) + r"\s*(<|\s)") for a in aliases]
        for pat in decl_types:
            for m in pat.finditer(text):
                i = m.end() - 1
                if text[i] == "<":
                    depth = 0
                    while i < len(text):
                        if text[i] == "<":
                            depth += 1
                        elif text[i] == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        i += 1
                    i += 1
                nm = re.match(r"\s*[&*]*\s*(\w+)\s*[;={(,)]", text[i:i + 120])
                if nm:
                    name = nm.group(1)
                    if name not in ("const", "return", "else"):
                        names.add(name)
        return names

    RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;{}]*?):([^;{})]*)\)")
    # Only begin(): `x.end()` alone is the find()-membership idiom, which
    # never observes hash order.
    BEGIN_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
    ORDERED_DECL_RE = re.compile(
        r"\b(?:std\s*::\s*)?(?:map|set|multimap|multiset|vector|deque|list|array|"
        r"basic_string|string)\s*<[^;{}]*?>\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,]")

    def ordered_shadow(self, ctx: FileCtx):
        """Names (re)declared with an ordered type in this file or its paired
        header — they shadow same-named unordered members of other classes
        pulled in through the include graph."""
        shadow = set(m.group(1) for m in self.ORDERED_DECL_RE.finditer(ctx.code))
        paired = os.path.splitext(ctx.path)[0] + ".h"
        if paired != ctx.path and os.path.exists(paired):
            pc = self.ctx(paired)
            shadow |= set(m.group(1) for m in self.ORDERED_DECL_RE.finditer(pc.code))
            shadow -= self.unordered_names(pc)
        shadow -= self.unordered_names(ctx)
        return shadow

    def check_r2(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not rel.startswith(("src/", "tests/", "bench/")) or self.exempt("R2", rel):
            return
        names = self.unordered_names(ctx)
        for inc in self.repo_includes(ctx):
            names |= self.unordered_names(inc)
        names -= self.ordered_shadow(ctx)
        if not names:
            return
        text = ctx.code
        for m in self.RANGE_FOR_RE.finditer(text):
            expr = m.group(2).strip()
            if any(w + "(" in expr for w in self.SORTED_WRAPPERS):
                continue
            base = re.match(r"(?:this\s*->\s*)?([A-Za-z_]\w*)\s*$", expr)
            if base and base.group(1) in names:
                self.emit("R2", ctx, line_of(text, m.start()),
                          f"range-for over unordered container '{base.group(1)}': "
                          "hash order is nondeterministic; iterate "
                          "util::sorted_keys()/sorted_items() or use an ordered container")
        for m in self.BEGIN_RE.finditer(text):
            if m.group(1) in names:
                self.emit("R2", ctx, line_of(text, m.start()),
                          f"iterator over unordered container '{m.group(1)}': "
                          "hash order is nondeterministic; iterate "
                          "util::sorted_keys()/sorted_items() or use an ordered container")

    # ----------------------------------------------------------------------
    # R3: naked allocation
    # ----------------------------------------------------------------------
    R3_NEW_RE = re.compile(r"(?<![\w:])new\b(?!\s*\()")        # `::new (place)` allowed? no:
    R3_PLACEMENT_RE = re.compile(r"::\s*new\s*\(")             # placement new (slab internals)
    R3_DELETE_RE = re.compile(r"(?<![\w:])delete\b")
    R3_C_ALLOC_RE = re.compile(
        r"(?<![\w.:>])(?:std\s*::\s*|::\s*)?(?:malloc|calloc|realloc|free)\s*\(")

    def check_r3(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not rel.startswith(("src/", "tests/", "bench/")) or self.exempt("R3", rel):
            return
        for lineno, line in enumerate(ctx.code_lines, 1):
            stripped = self.R3_PLACEMENT_RE.sub(" ", line)
            if self.R3_NEW_RE.search(stripped) or self.R3_PLACEMENT_RE.search(line):
                self.emit("R3", ctx, lineno,
                          "naked `new`: allocation is owned by net/pool and "
                          "sim/event_queue; use make_message/make_unique or the pools")
            if self.R3_DELETE_RE.search(line) and not re.search(
                    r"=\s*delete|operator\s+delete", line):
                self.emit("R3", ctx, lineno,
                          "naked `delete`: pair allocation with RAII or the owning pool")
            if self.R3_C_ALLOC_RE.search(line):
                self.emit("R3", ctx, lineno,
                          "C allocation (malloc/calloc/realloc/free) outside the slabs")

    # ----------------------------------------------------------------------
    # R4: layout completeness of wire structs
    # ----------------------------------------------------------------------
    STRUCT_RE = re.compile(r"\bstruct\s+(\w+)(?:\s+final)?[^;{(]*\{")
    FIELD_RE = re.compile(
        r"^\s*(?!using\b|static\b|typedef\b|struct\b|class\b|enum\b|friend\b|return\b)"
        r"[A-Za-z_][\w:<>,\s*&]*?[\s&*>]([A-Za-z_]\w*)\s*;\s*$")
    INIT_RE = re.compile(r"\s*=[^;]*;\s*$")
    FIELDS_FN_RE = r"\bstatic\s+void\s+fields\s*\("

    def struct_bodies(self, ctx: FileCtx):
        for m in self.STRUCT_RE.finditer(ctx.code):
            open_idx = m.end() - 1
            end = matching_brace(ctx.code, open_idx)
            if end > 0:
                yield m.group(1), open_idx + 1, ctx.code[open_idx + 1:end - 1]

    def member_fn_body(self, body: str, pattern: str):
        m = re.search(pattern, body)
        if not m:
            return None
        open_idx = body.find("{", m.end() - 1)
        if open_idx < 0:
            return None
        end = matching_brace(body, open_idx)
        return body[open_idx:end] if end > 0 else None

    def top_level_fields(self, body: str):
        """Data member names declared at depth 0 of a struct body. A
        default initializer is dropped first, so `P value = make();`
        counts while a `Ctor() = default;` declaration does not."""
        fields = []
        depth = 0
        for line in body.splitlines():
            decl = self.INIT_RE.sub(";", line)
            if depth == 0 and "(" not in decl:
                fm = self.FIELD_RE.match(decl)
                if fm:
                    fields.append(fm.group(1))
            depth += line.count("{") - line.count("}")
            depth = max(depth, 0)
        return fields

    def check_r4(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not (rel.startswith("src/") and rel.endswith(".h")):
            return
        for name, body_start, body in self.struct_bodies(ctx):
            # The fields list is the struct's one wire layout: net::Wire
            # sizes, encodes and decodes it, so a member missing from it
            # never reaches the wire.
            fields_body = self.member_fn_body(body, self.FIELDS_FN_RE)
            if fields_body is None:
                continue  # not a wire struct
            lineno = line_of(ctx.code, body_start)
            for fld in self.top_level_fields(body):
                if not re.search(r"\b" + re.escape(fld) + r"\b", fields_body):
                    self.emit("R4", ctx, lineno,
                              f"struct {name}: field '{fld}' missing from its fields "
                              "list (the codec would silently drop it on the wire)")

    # ----------------------------------------------------------------------
    # R5: lifetime-unsafe captures into timers
    # ----------------------------------------------------------------------
    SIM_SCHEDULE_RE = re.compile(r"\bschedule_(?:after|at)\s*\(")
    HOST_AFTER_RE = re.compile(r"\bhost_\s*->\s*after\s*\(")
    GUARD_TOKEN_RE = re.compile(r"\b(?:alive|gen|generation|epoch)\w*\b")

    def capture_list_after(self, text: str, idx: int):
        """Capture list of the first lambda inside the call whose opening
        paren is at idx-1. Bounded by the matching close paren so a
        declaration's parameter list (no lambda) never borrows one from a
        later line."""
        depth = 1
        end = idx
        while end < len(text) and depth > 0:
            if text[end] == "(":
                depth += 1
            elif text[end] == ")":
                depth -= 1
            end += 1
        m = re.compile(r"\[([^\]]*)\]").search(text, idx, end)
        return m.group(1) if m else None

    def pointer_names(self, ctx: FileCtx):
        """Identifiers declared as raw pointers anywhere in the file."""
        names = set()
        for m in re.finditer(r"\b(?:[A-Za-z_][\w:]*\s*(?:<[^;()]*>)?\s*\*+\s*|auto\s*\*\s*)"
                             r"(?:const\s+)?([A-Za-z_]\w*)\s*[=;,)]", ctx.code):
            names.add(m.group(1))
        return names

    def check_r5(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not rel.startswith("src/") or self.exempt("R5", rel):
            return
        text = ctx.code
        ptr_names = None
        for m in self.SIM_SCHEDULE_RE.finditer(text):
            caps = self.capture_list_after(text, m.end())
            if caps is None:
                continue
            lineno = line_of(text, m.start())
            caps_s = caps.strip()
            if "this" in re.split(r"[,\s]+", caps_s):
                self.emit("R5", ctx, lineno,
                          "lambda given to Simulation::schedule_after/at captures `this`: "
                          "sim-level timers outlive crashed/destroyed processes; use "
                          "Process::after (epoch-guarded) instead")
                continue
            if "&" in caps_s:
                self.emit("R5", ctx, lineno,
                          "lambda given to Simulation::schedule_after/at captures by "
                          "reference: the referent can die before the timer fires")
                continue
            if ptr_names is None:
                ptr_names = self.pointer_names(ctx)
            for ident in re.findall(r"[A-Za-z_]\w*", caps_s):
                if ident in ptr_names:
                    self.emit("R5", ctx, lineno,
                              f"lambda given to Simulation::schedule_after/at captures raw "
                              f"pointer '{ident}': the object can be destroyed before the "
                              "timer fires (the PR 1 Learner use-after-free class); route "
                              "through the owner's epoch-guarded Process::after")
                    break
        for m in self.HOST_AFTER_RE.finditer(text):
            caps = self.capture_list_after(text, m.end())
            if caps is None:
                continue
            if not self.GUARD_TOKEN_RE.search(caps):
                self.emit("R5", ctx, line_of(text, m.start()),
                          "role object arms host_->after() without a liveness token in the "
                          "capture list (e.g. `alive = gen_`): the role can be torn down "
                          "while its host lives on, leaving the timer dangling")

    # ----------------------------------------------------------------------
    # R6: nodiscard Status discipline
    # ----------------------------------------------------------------------
    STATUS_FN_RE = re.compile(
        r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+|inline\s+)*"
        r"(?:util\s*::\s*|epx\s*::\s*)?(?:Status|Result\s*<[^;{=]*>)\s+"
        r"(\w+)\s*\(", re.M)

    def status_fn_names(self, ctxs):
        names = set()
        for c in ctxs:
            for m in self.STATUS_FN_RE.finditer(c.code):
                names.add(m.group(1))
        # Constructors/accessors that commonly collide are excluded by the
        # bare-statement shape below; nothing else to filter today.
        return names

    def check_r6_status_header(self, ctx: FileCtx):
        is_status_header = ctx.rel.endswith("util/status.h") or (
            self.assume_src and os.path.basename(ctx.rel).endswith("status.h"))
        if not is_status_header:
            return
        if not re.search(r"class\s*\[\[nodiscard\]\]\s*Status\b", ctx.code):
            self.emit("R6", ctx, 1,
                      "util/status.h: class Status has lost its [[nodiscard]] annotation")
        if not re.search(r"class\s*\[\[nodiscard\]\]\s*Result\b", ctx.code):
            self.emit("R6", ctx, 1,
                      "util/status.h: class Result has lost its [[nodiscard]] annotation")

    def check_r6(self, ctx: FileCtx, status_fns):
        rel = self.effective_rel(ctx)
        if not rel.startswith("src/"):
            return
        self.check_r6_status_header(ctx)
        # Functions declared in this very file (and its paired header) also
        # count — a .cc's local Status helpers aren't in the src/*.h DB.
        status_fns = status_fns | self.status_fn_names([ctx])
        if not status_fns:
            return
        # Bare statement whose entire content is a call to a Status-returning
        # function: `foo(...);` / `obj.foo(...);` / `obj->foo(...);`
        for lineno, line in enumerate(ctx.code_lines, 1):
            m = re.match(r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\([^;=]*\)\s*;\s*$",
                         line)
            if m and m.group(1) in status_fns:
                self.emit("R6", ctx, lineno,
                          f"return value of Status-returning '{m.group(1)}()' is discarded; "
                          "consume it or void-cast with a comment")

    # ----------------------------------------------------------------------
    # R7: shared mutable state in the parallel simulation core
    # ----------------------------------------------------------------------
    # src/sim/ is the only directory whose code runs on multiple worker
    # threads at once (one shard per thread inside a window). Any
    # static-duration mutable variable there is shared across shards and
    # therefore a data race unless it is immutable, shard-confined
    # (thread_local), atomic, or one of the cross-shard channel types
    # whose synchronization the engine owns.
    R7_SKIP_RE = re.compile(
        r"\b(?:const|constexpr|constinit|thread_local|using|typedef|extern|friend|"
        r"namespace|template|operator|return|static_assert|struct|class|enum|union|"
        r"public|private|protected|goto|throw|delete|case)\b")
    R7_SYNC_RE = re.compile(
        r"\b(?:std\s*::\s*)?(?:atomic\w*\s*<|atomic_\w+\b|mutex\b|shared_mutex\b|"
        r"recursive_mutex\b|once_flag\b|condition_variable\w*\b|counting_semaphore\b|"
        r"binary_semaphore\b|barrier\b|latch\b)")
    # Cross-shard conduits whose internal synchronization is the engine's
    # responsibility (reviewed once, at the type): the staged network
    # channels and counter staging in sim/network.h and the worker
    # barrier state in sim/simulation.cc.
    R7_CHANNEL_TYPES = ("Channel", "ChannelRecord", "CounterStage", "WorkerPool")
    # A single-line variable declaration: type tokens, then the declared
    # name, then `;` with an optional `= ...` / `{...}` initializer.
    # Anything with a paren after the name (function declarations) or a
    # non-identifier head (assignments like `x.y = z;`) falls through.
    R7_DECL_RE = re.compile(
        r"^\s*(static\s+)?[A-Za-z_][\w:]*(?:\s*<[^;=()]*>)?[\s*&]+"
        r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;\s*$")

    def ns_scope_lines(self, ctx: FileCtx):
        """1-based line numbers that START at namespace (or file) scope.

        Tracks the brace stack, classifying each `{` by whether the text
        since the last statement boundary ends in a namespace head. A line
        is namespace-scoped iff every brace open at its start belongs to a
        namespace — so class bodies and function bodies drop out, while
        the line that *opens* them (e.g. `void f() {`) stays in and is
        filtered by the declaration shape instead.
        """
        ns_head = re.compile(r"\bnamespace(?:\s+[\w:]+)?\s*$")
        lines = {1}
        stack = []
        tail = ""
        lineno = 1
        for ch in ctx.code:
            if ch == "{":
                stack.append(bool(ns_head.search(tail)))
                tail = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                tail = ""
            elif ch == ";":
                tail = ""
            elif ch == "\n":
                lineno += 1
                if all(stack):
                    lines.add(lineno)
                tail += " "
            else:
                tail += ch
        return lines

    def check_r7(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not rel.startswith("src/sim/") or self.exempt("R7", rel):
            return
        ns_lines = self.ns_scope_lines(ctx)
        for lineno, line in enumerate(ctx.code_lines, 1):
            decl = self.R7_DECL_RE.match(line)
            if not decl:
                continue
            if self.R7_SKIP_RE.search(line) or self.R7_SYNC_RE.search(line):
                continue
            if any(re.search(r"\b" + t + r"\b", line) for t in self.R7_CHANNEL_TYPES):
                continue
            # Namespace-scope variables are shared however they're spelled;
            # `static` ones (locals, class members, file-statics) are shared
            # at any scope. Plain members/locals are instance- or
            # frame-owned and follow their owner's shard.
            if lineno not in ns_lines and not decl.group(1):
                continue
            self.emit("R7", ctx, lineno,
                      f"static-duration mutable '{decl.group(2)}' in src/sim/ is "
                      "shared across concurrently-running shards; make it const, "
                      "thread_local, atomic, or route it through a locked "
                      "cross-shard channel")

    # ----------------------------------------------------------------------
    # epx-flow: cross-TU protocol-flow model (shared by R8-R11 and the
    # registry emitters). Collection runs for every scanned src/ file; the
    # whole-model checks run once after the per-file loop.
    # ----------------------------------------------------------------------
    MSGTYPE_ENUM_RE = re.compile(r"\benum\s+class\s+MsgType\b[^{;]*\{")
    KIND_REF_RE = re.compile(r"\bMsgType\s*::\s*k(\w+)")
    REGISTER_RE = re.compile(
        r"\bregister_type\s*\(\s*(?:net\s*::\s*)?MsgType\s*::\s*k(\w+)")
    MAKE_MSG_RE = re.compile(r"\bmake_(?:mutable_)?message\s*<\s*([\w:\s]+?)\s*>")
    CASE_RE = re.compile(r"\bcase\s+(?:net\s*::\s*)?MsgType\s*::\s*k(\w+)")
    TYPE_CMP_RE = re.compile(
        r"\btype\s*\(\s*\)\s*[!=]=\s*(?:net\s*::\s*)?MsgType\s*::\s*k(\w+)")
    # Sentinel enum entries that deliberately have no wire struct.
    SENTINEL_KINDS = {"Invalid", "None", "Unknown", "Max", "Count"}
    PUBLISH_RE = re.compile(r"(?:\.|->)\s*(counter|gauge|timer)\s*\(")
    CONSUME_RE = re.compile(r"\b(?:find_(?:counter|gauge|timer)|metric_key)\s*\(")
    MONITOR_ASSIGN_RE = re.compile(r"\bmonitor\s*=\s*")
    NAME_SHAPE_RE = re.compile(r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"')
    # Dotted literals in src/harness that are clearly paths/artifacts, not
    # observability names.
    NON_NAME_EXTS = {"json", "jsonl", "txt", "csv", "md", "dot", "svg", "log",
                     "html", "bin", "gz", "cc", "h"}

    def skip_ws(self, text: str, i: int) -> int:
        while i < len(text) and text[i] in " \t\n\r":
            i += 1
        return i

    def read_literal(self, ctx: FileCtx, idx: int):
        """Content of the string literal whose opening quote sits at
        code[idx], read from the raw text (the stripped text blanks literal
        contents but is position-preserving)."""
        raw = ctx.raw
        if idx >= len(raw) or raw[idx] != '"':
            return None
        j = idx + 1
        out = []
        while j < len(raw):
            c = raw[j]
            if c == "\\":
                out.append("?")
                j += 2
                continue
            if c == '"':
                return "".join(out)
            out.append(c)
            j += 1
        return None

    def collect_flow(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        fl = self.flow
        code = ctx.code
        # Consume sites (find_counter/find_gauge/find_timer/metric_key with a
        # literal first argument) count from bench/ tooling as well.
        if rel.startswith(("src/", "bench/")):
            for m in self.CONSUME_RE.finditer(code):
                i = self.skip_ws(code, m.end())
                name = self.read_literal(ctx, i)
                if name is not None:
                    fl.consume_sites.append((name, ctx, line_of(code, m.start()), True))
                    fl.consumed.setdefault(name, set()).add(rel)
        if not rel.startswith("src/"):
            return
        # -- message kinds -------------------------------------------------
        em = self.MSGTYPE_ENUM_RE.search(code)
        if em:
            end = matching_brace(code, em.end() - 1)
            body = code[em.end():end - 1] if end > 0 else ""
            off, tag = 0, 0
            for seg in body.split(","):
                km = re.search(r"\bk(\w+)\s*(?:=\s*(\d+))?", seg)
                if km:
                    tag = int(km.group(2)) if km.group(2) else tag + 1
                    pos = em.end() + off + km.start(1)
                    fl.enum_kinds[km.group(1)] = (ctx, line_of(code, pos), tag)
                off += len(seg) + 1
        # -- wire structs (any */messages.h) -------------------------------
        if rel.endswith("messages.h"):
            for name, body_start, body in self.struct_bodies(ctx):
                km = self.KIND_REF_RE.search(body)
                if not km:
                    continue  # helper struct, not a wire message
                fl.structs[name] = {"kind": km.group(1), "ctx": ctx,
                                    "line": line_of(code, body_start),
                                    "fields": bool(re.search(self.FIELDS_FN_RE, body))}
                fl.kind_struct[km.group(1)] = name
        # -- registrations (any src/ file) ---------------------------------
        for m in self.REGISTER_RE.finditer(code):
            fl.registrations.setdefault(m.group(1), set()).add(rel)
        # -- handler cases / send sites: roles only, not the codec layer ---
        # (net/wire.h's decode builds messages but doesn't send, and
        # net/message.cc's msg_type_name debug table is not a dispatcher).
        if not rel.endswith(("messages.cc", "net/message.h", "net/message.cc", "net/wire.h")):
            for pat in (self.CASE_RE, self.TYPE_CMP_RE):
                for m in pat.finditer(code):
                    fl.handlers.setdefault(m.group(1), set()).add(rel)
            for m in self.MAKE_MSG_RE.finditer(code):
                tname = m.group(1).split("::")[-1].strip()
                fl.sends.setdefault(tname, set()).add(rel)
        # -- observability names -------------------------------------------
        if rel.startswith("src/obs/span."):
            # span.cc publishes through its kMetricNames table: the table's
            # literals are the published span-stage names.
            for m in self.NAME_SHAPE_RE.finditer(ctx.raw):
                if m.start() < len(code) and code[m.start()] == '"':
                    fl.add_publish(m.group(1), "span", rel)
                    fl.published[m.group(1)].setdefault(
                        "site", (ctx, line_of(code, m.start())))
        elif not rel.startswith("src/obs/metrics."):
            for m in self.PUBLISH_RE.finditer(code):
                i = self.skip_ws(code, m.end())
                name = self.read_literal(ctx, i)
                lineno = line_of(code, m.start())
                if name is None:
                    fl.publish_nonliteral.append((ctx, lineno, m.group(1)))
                else:
                    fl.add_publish(name, m.group(1), rel)
                    fl.published[name].setdefault("site", (ctx, lineno))
            for m in self.MONITOR_ASSIGN_RE.finditer(code):
                i = self.skip_ws(code, m.end())
                name = self.read_literal(ctx, i)
                if name is not None:
                    fl.add_publish(name, "monitor", rel)
                    fl.published[name].setdefault("site", (ctx, line_of(code, m.start())))
        # Name-shaped literals in the harness/report layer are consumers:
        # they must refer to names something actually publishes.
        if rel.startswith("src/harness/"):
            for m in self.NAME_SHAPE_RE.finditer(ctx.raw):
                if m.start() < len(code) and code[m.start()] != '"':
                    continue
                name = m.group(1)
                if name.rsplit(".", 1)[-1] in self.NON_NAME_EXTS:
                    continue
                fl.consume_sites.append((name, ctx, line_of(code, m.start()), False))
                fl.consumed.setdefault(name, set()).add(rel)

    # ----------------------------------------------------------------------
    # shared function-span parser (R9 call graph, R11 owner attribution)
    # ----------------------------------------------------------------------
    FN_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                   "new", "delete", "else", "do", "alignof", "decltype",
                   "static_assert", "assert", "defined", "throw"}

    def function_spans(self, ctx: FileCtx):
        """(simple_name, body_start, body_end) for every function definition
        found lexically: `name(params) [qualifiers] { body }`. Out-of-line
        `Class::name` definitions report the simple name; lambda bodies are
        not spans of their own and so attribute to the enclosing function."""
        spans = []
        code = ctx.code
        n = len(code)
        for m in re.finditer(r"([A-Za-z_~]\w*)\s*\(", code):
            name = m.group(1)
            if name in self.FN_KEYWORDS:
                continue
            # Member calls (`x.begin()`, `p->send()`) are never definitions.
            p = m.start(1) - 1
            while p >= 0 and code[p] in " \t\n":
                p -= 1
            if p >= 0 and (code[p] == "." and (p < 1 or code[p - 1] != ".")
                           or code[p] == ">" and p >= 1 and code[p - 1] == "-"):
                continue
            i, depth = m.end() - 1, 0
            while i < n:
                if code[i] == "(":
                    depth += 1
                elif code[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if i >= n:
                continue
            # A definition's parameter close paren is followed by `{`, a
            # qualifier word, a ctor init list `:` or a trailing return
            # `->`; a `,`/`)`/`]`/`;`/`=` means this was a call or decl.
            k = self.skip_ws(code, i + 1)
            if k >= n or code[k] in ",)];=":
                continue
            # Scan to the body '{' through qualifiers/ctor-init-lists; a
            # ';', '=' or '}' first (or leaving the enclosing parens) means
            # declaration/call/assignment, not a def.
            j, pdepth, body = i + 1, 0, -1
            while j < n:
                c = code[j]
                if c == "(":
                    pdepth += 1
                elif c == ")":
                    pdepth -= 1
                    if pdepth < 0:
                        break
                elif pdepth == 0:
                    if c == "{":
                        body = j
                        break
                    if c in ";=}":
                        break
                j += 1
            if body < 0:
                continue
            end = matching_brace(code, body)
            if end > 0:
                spans.append((name, body, end))
        return spans

    def innermost_span(self, spans, pos):
        best = None
        for nm, a, b in spans:
            if a <= pos < b and (best is None or b - a < best[2] - best[1]):
                best = (nm, a, b)
        return best[0] if best else None

    # ----------------------------------------------------------------------
    # R8: message-flow exhaustiveness (whole-model)
    # ----------------------------------------------------------------------
    def check_r8(self):
        fl = self.flow
        for kind in sorted(fl.enum_kinds):
            ctx, line, _tag = fl.enum_kinds[kind]
            if kind in self.SENTINEL_KINDS:
                continue
            if kind not in fl.kind_struct:
                self.emit("R8", ctx, line,
                          f"message kind k{kind} has no wire struct in any "
                          "*/messages.h: dead kind — delete it (pin the successor's "
                          "tag) or implement the message")
        for name in sorted(fl.structs):
            info = fl.structs[name]
            kind, sctx, line = info["kind"], info["ctx"], info["line"]
            if name not in fl.sends:
                self.emit("R8", sctx, line,
                          f"message {name} (k{kind}) is never sent: no "
                          f"make_message<{name}> site outside the codec layer")
            if kind not in fl.handlers:
                self.emit("R8", sctx, line,
                          f"message {name} (k{kind}) is never handled: no "
                          f"`case MsgType::k{kind}` or type() comparison in any role")
            if not info["fields"]:
                self.emit("R8", sctx, line,
                          f"message {name} (k{kind}) has no fields list: net::Wire "
                          "cannot size, encode or decode it")
            if kind not in fl.registrations:
                self.emit("R8", sctx, line,
                          f"message {name} (k{kind}) is never registered with the "
                          "codec (register_type): it cannot be decoded off the wire")

    # ----------------------------------------------------------------------
    # R9: durability-barrier coverage (per file with an AcceptorStore)
    # ----------------------------------------------------------------------
    R9_STORE_RE = re.compile(r"\bAcceptorStore\s*>?\s*[*&]?\s*([A-Za-z_]\w*)\s*[;=,){]")

    def r9_store_members(self, ctx: FileCtx):
        members = set()
        texts = [ctx.code]
        hdr = os.path.splitext(ctx.path)[0] + ".h"
        if hdr != ctx.path and os.path.exists(hdr):
            texts.append(self.ctx(hdr).code)
        for t in texts:
            for m in self.R9_STORE_RE.finditer(t):
                members.add(m.group(1))
        return members

    def check_r9(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not rel.startswith("src/") or self.exempt("R9", rel):
            return
        if not ctx.path.endswith((".cc", ".cpp", ".cxx")):
            return
        members = self.r9_store_members(ctx)
        if not members:
            return
        code = ctx.code
        spans = self.function_spans(ctx)
        if not spans:
            return
        # Barrier regions: the full argument span of every member->sync(...)
        # call — sends and calls lexically inside run after the journal flush.
        regions = []
        for mem in sorted(members):
            for m in re.finditer(
                    r"\b" + re.escape(mem) + r"\s*(?:->|\.)\s*sync\s*\(", code):
                i, depth = m.end() - 1, 0
                while i < len(code):
                    if code[i] == "(":
                        depth += 1
                    elif code[i] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                regions.append((m.start(), i))

        def barriered(pos):
            return any(a <= pos <= b for a, b in regions)

        fn_names = {nm for nm, _a, _b in spans}
        bare_calls = {nm: set() for nm in fn_names}
        bare_sends = {nm: [] for nm in fn_names}
        for nm, a, b in spans:
            for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", code[a:b]):
                pos = a + m.start()
                if barriered(pos):
                    continue
                callee = m.group(1)
                if callee == "send":
                    bare_sends[nm].append(pos)
                elif callee in fn_names and callee != nm:
                    bare_calls[nm].add(callee)
        # Handlers (on_*) are the roots; bare calls propagate reachability,
        # barriered calls don't (they already paid for the flush).
        reach = {nm for nm in fn_names if nm.startswith("on_")}
        work = list(reach)
        while work:
            f = work.pop()
            for g in bare_calls.get(f, ()):
                if g not in reach:
                    reach.add(g)
                    work.append(g)
        mem = sorted(members)[0]
        for f in sorted(reach):
            for pos in bare_sends.get(f, ()):
                self.emit("R9", ctx, line_of(code, pos),
                          f"send on the handler path ('{f}') is not behind "
                          f"{mem}->sync(): acceptor state escapes to the wire "
                          "before the journal barrier (PR 7 invariant)")

    # ----------------------------------------------------------------------
    # R10: observability-name registry (whole-model)
    # ----------------------------------------------------------------------
    def name_docs_line(self, name: str) -> int:
        try:
            with open(os.path.abspath(__file__), "r", encoding="utf-8") as f:
                for i, line in enumerate(f, 1):
                    if f'"{name}":' in line:
                        return i
        except OSError:
            pass
        return 1

    def check_r10(self):
        fl = self.flow
        for ctx, lineno, what in fl.publish_nonliteral:
            self.emit("R10", ctx, lineno,
                      f"{what}() name is not a string literal: observability names "
                      "must be literal so the registry (names.json) stays generable")
        for name in sorted(fl.published):
            if name not in NAME_DOCS:
                sctx, sline = fl.published[name]["site"]
                self.emit("R10", sctx, sline,
                          f"published name '{name}' is undocumented: add it to "
                          "NAME_DOCS in tools/epx-lint/epx_lint.py and regenerate "
                          "the registry (--emit-registry)")
        known_ns = {n.split(".", 1)[0] for n in list(fl.published) + list(NAME_DOCS)}
        for name, ctx, lineno, strict in fl.consume_sites:
            if name in fl.published or name in NAME_DOCS:
                continue
            if not strict and name.split(".", 1)[0] not in known_ns:
                continue  # harness literal outside every metric namespace
            self.emit("R10", ctx, lineno,
                      f"name '{name}' is consumed but never published by any src/ "
                      "component (stale or typoed)")
        if self.full_src:
            for name in sorted(NAME_DOCS):
                if name not in fl.published:
                    self.report.violations.append(Violation(
                        "R10", "tools/epx-lint/epx_lint.py",
                        self.name_docs_line(name),
                        f"NAME_DOCS entry '{name}' is never published — prune it "
                        "or restore the publisher"))

    # ----------------------------------------------------------------------
    # R11: cross-shard member freeze in src/sim/
    # ----------------------------------------------------------------------
    CROSS_SHARD_RE = re.compile(r"epx-lint:\s*cross-shard\(([^)]*)\)")

    def r11_annotations(self, ctx: FileCtx):
        """member name -> reviewed owner set, from `epx-lint:
        cross-shard(fn, ...)` directives on (or directly above) the member
        declaration, in this file and — for a .cc — its paired header."""
        out = {}
        ctxs = [ctx]
        hdr = os.path.splitext(ctx.path)[0] + ".h"
        if hdr != ctx.path and os.path.exists(hdr):
            ctxs.append(self.ctx(hdr))
        for c in ctxs:
            for idx, rawline in enumerate(c.raw_lines):
                m = self.CROSS_SHARD_RE.search(rawline)
                if not m:
                    continue
                owners = {o.strip() for o in m.group(1).split(",") if o.strip()}
                for ln in (idx, idx + 1):
                    if ln >= len(c.code_lines):
                        break
                    dm = re.search(r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;",
                                   c.code_lines[ln])
                    if dm:
                        out[dm.group(1)] = owners
                        break
        return out

    def check_r11(self, ctx: FileCtx):
        rel = self.effective_rel(ctx)
        if not rel.startswith("src/sim/") or self.exempt("R11", rel):
            return
        ann = self.r11_annotations(ctx)
        if not ann:
            return
        spans = self.function_spans(ctx)
        for member in sorted(ann):
            owners = ann[member]
            for m in re.finditer(r"\b" + re.escape(member) + r"\b", ctx.code):
                fn = self.innermost_span(spans, m.start())
                if fn is None:
                    continue  # the declaration / an initializer list
                if fn not in owners:
                    self.emit("R11", ctx, line_of(ctx.code, m.start()),
                              f"cross-shard member '{member}' touched in '{fn}' "
                              f"outside its reviewed owner set "
                              f"({', '.join(sorted(owners))}); worker-context code "
                              "must go through the staged-channel paths")

    # ----------------------------------------------------------------------
    # driver
    # ----------------------------------------------------------------------
    def run(self, files):
        files = [os.path.abspath(f) for f in files if f.endswith(SRC_EXTS)]
        self.report.files_scanned = len(files)
        # Status function DB needs headers beyond the scanned set.
        status_fns = set()
        if "R6" in self.rules:
            hdrs = []
            src_root = os.path.join(self.root, "src")
            if os.path.isdir(src_root):
                for dirpath, _dirs, names in os.walk(src_root):
                    for n in names:
                        if n.endswith(".h"):
                            hdrs.append(self.ctx(os.path.join(dirpath, n)))
            status_fns = self.status_fn_names(hdrs)
        for path in files:
            ctx = self.ctx(path)
            # Fixture snippets are deliberate violations; the fixture test
            # lints them one at a time with --assume-src.
            if not self.assume_src and "tests/lint_fixtures/" in ctx.rel:
                continue
            self.collect_flow(ctx)
            if "R1" in self.rules:
                self.check_r1(ctx)
            if "R2" in self.rules:
                self.check_r2(ctx)
            if "R3" in self.rules:
                self.check_r3(ctx)
            if "R4" in self.rules:
                self.check_r4(ctx)
            if "R5" in self.rules:
                self.check_r5(ctx)
            if "R6" in self.rules:
                self.check_r6(ctx, status_fns)
            if "R7" in self.rules:
                self.check_r7(ctx)
            if "R9" in self.rules:
                self.check_r9(ctx)
            if "R11" in self.rules:
                self.check_r11(ctx)
        # Whole-model rules run once over the collected flow model.
        if "R8" in self.rules:
            self.check_r8()
        if "R10" in self.rules:
            self.check_r10()
        return self.report


# ---------------------------------------------------------------------------
# Generated registry artifacts (names.json / NAMES.md / message_flow.*)
# ---------------------------------------------------------------------------

REGISTRY_FILES = ("names.json", "NAMES.md", "message_flow.json", "message_flow.dot")


def registry_artifacts(linter: Linter) -> dict:
    """Render the flow model into the four generated registry files.

    Deterministic (everything sorted) so `--check-registry` can diff the
    checked-in copies byte-for-byte against a fresh scan.
    """
    fl = linter.flow
    names = {}
    for name in sorted(fl.published):
        ent = fl.published[name]
        names[name] = {
            "kind": ent["kind"],
            "doc": NAME_DOCS.get(name, ""),
            "publishers": sorted(ent["publishers"]),
            "consumers": sorted(fl.consumed.get(name, ())),
        }
    names_json = json.dumps({
        "_generated": "epx-lint --emit-registry; verify with --check-registry",
        "names": names,
    }, indent=2) + "\n"

    md = ["# Observability name registry",
          "",
          "Generated by `epx_lint.py --emit-registry` from the publish/consume",
          "sites in `src/` — do not edit by hand; the `lint_names_drift` check",
          "fails when this file is stale.",
          "",
          "| name | kind | doc | published in | consumed in |",
          "|---|---|---|---|---|"]
    for name, e in names.items():
        md.append(f"| `{name}` | {e['kind']} | {e['doc']} | "
                  f"{', '.join(e['publishers'])} | {', '.join(e['consumers']) or '—'} |")
    names_md = "\n".join(md) + "\n"

    send_by_kind = {}
    for sname, rels in fl.sends.items():
        info = fl.structs.get(sname)
        if info:
            send_by_kind.setdefault(info["kind"], set()).update(rels)
    kinds = {}
    for kind in sorted(fl.enum_kinds):
        _ctx, _line, tag = fl.enum_kinds[kind]
        sname = fl.kind_struct.get(kind)
        kinds["k" + kind] = {
            "tag": tag,
            "struct": sname,
            "defined_in": fl.structs[sname]["ctx"].rel if sname else None,
            "senders": sorted(send_by_kind.get(kind, ())),
            "handlers": sorted(fl.handlers.get(kind, ())),
            "registered_in": sorted(fl.registrations.get(kind, ())),
        }
    flow_json = json.dumps({
        "_generated": "epx-lint --emit-registry; verify with --check-registry",
        "kinds": kinds,
    }, indent=2) + "\n"

    def role(rel: str) -> str:
        r = rel[4:] if rel.startswith("src/") else rel
        return r.rsplit(".", 1)[0]

    dot = ["// Generated by epx-lint --emit-registry. Render with:",
           "//   dot -Tsvg message_flow.dot -o message_flow.svg",
           "digraph message_flow {",
           "  rankdir=LR;",
           "  node [fontsize=10];"]
    roles, edges = set(), set()
    for k, e in kinds.items():
        dot.append(f'  "{k}" [shape=box, style=filled, fillcolor="#eef3ff", '
                   f'label="{k}\\ntag {e["tag"]}"];')
        for s in e["senders"]:
            roles.add(role(s))
            edges.add(f'  "{role(s)}" -> "{k}";')
        for h in e["handlers"]:
            roles.add(role(h))
            edges.add(f'  "{k}" -> "{role(h)}";')
    for r in sorted(roles):
        dot.append(f'  "{r}" [shape=ellipse];')
    dot.extend(sorted(edges))
    dot.append("}")
    flow_dot = "\n".join(dot) + "\n"

    return {"names.json": names_json, "NAMES.md": names_md,
            "message_flow.json": flow_json, "message_flow.dot": flow_dot}


def collect_files(root: str, paths):
    out = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(full):
            for dirpath, _dirs, names in os.walk(full):
                for n in sorted(names):
                    if n.endswith(SRC_EXTS):
                        out.append(os.path.join(dirpath, n))
        elif os.path.isfile(full):
            out.append(full)
        else:
            print(f"epx-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(prog="epx-lint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to lint (default: src tests bench)")
    ap.add_argument("--root", default=".", help="repository root (default: cwd)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated subset of rules to run (default: all)")
    ap.add_argument("--assume-src", action="store_true",
                    help="apply src/-scoped rules to every scanned file "
                         "(used by the fixture tests)")
    ap.add_argument("--json", action="store_true", help="machine-readable report")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--emit-registry", metavar="DIR", nargs="?",
                    const="tools/epx-lint", default=None,
                    help="write the generated registry artifacts "
                         f"({', '.join(REGISTRY_FILES)}) to DIR "
                         "(default: tools/epx-lint)")
    ap.add_argument("--check-registry", metavar="DIR", nargs="?",
                    const="tools/epx-lint", default=None,
                    help="regenerate the registry in memory and fail (exit 1) if "
                         "the copies in DIR are stale")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, desc in RULES.items():
            print(f"{rid}: {desc}")
        return 0

    rules = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        print(f"epx-lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    root = os.path.abspath(args.root)
    paths = args.paths or [p for p in ("src", "tests", "bench") if
                           os.path.isdir(os.path.join(root, p))]
    files = collect_files(root, paths)

    # Whole-of-src scans unlock the R10 stale-docs direction (a partial scan
    # can't tell "never published" from "publisher not scanned").
    src_dir = os.path.join(root, "src")
    full_src = any(os.path.abspath(p if os.path.isabs(p) else os.path.join(root, p))
                   == src_dir for p in paths)

    linter = Linter(root, rules, args.assume_src, full_src=full_src)
    report = linter.run(files)

    drift = []
    arts = None
    if args.emit_registry or args.check_registry:
        arts = registry_artifacts(linter)
    if args.emit_registry:
        outdir = args.emit_registry if os.path.isabs(args.emit_registry) \
            else os.path.join(root, args.emit_registry)
        os.makedirs(outdir, exist_ok=True)
        for fn, content in arts.items():
            with open(os.path.join(outdir, fn), "w", encoding="utf-8") as f:
                f.write(content)
        print(f"epx-lint: wrote {', '.join(sorted(arts))} to {outdir}",
              file=sys.stderr)
    if args.check_registry:
        cdir = args.check_registry if os.path.isabs(args.check_registry) \
            else os.path.join(root, args.check_registry)
        for fn, content in arts.items():
            p = os.path.join(cdir, fn)
            try:
                with open(p, "r", encoding="utf-8") as f:
                    on_disk = f.read()
            except OSError:
                on_disk = None
            if on_disk != content:
                drift.append(fn)

    if args.json:
        print(json.dumps({
            "files_scanned": report.files_scanned,
            "violations": [vars(v) for v in report.violations],
            "suppressed": [vars(v) for v in report.suppressed],
            "registry_drift": drift,
        }, indent=2))
    else:
        for v in report.violations:
            print(v.render())
        for v in report.suppressed:
            print(f"note: {v.render()}")
        for fn in drift:
            print(f"epx-lint: registry file {fn} is stale — regenerate with "
                  "`epx_lint.py --emit-registry`")
        print(f"epx-lint: {report.files_scanned} files, "
              f"{len(report.violations)} violation(s), "
              f"{len(report.suppressed)} suppressed")
    return 1 if report.violations or drift else 0


if __name__ == "__main__":
    sys.exit(main())
