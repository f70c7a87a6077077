// TraceFlags: the shared `--trace-out` command line of the bench and
// example binaries.
//
// `--trace-out=<path>` switches a run into traced mode: causal lifecycle
// spans are collected (obs/span.h), the invariant monitors are armed
// (obs/monitor.h), and the flight recorder gets a dump path next to the
// trace file. The trace ring records the same control-plane events as in
// an untraced run; per-command stages live in the spans. After the run,
// finish() writes the Chrome trace-event JSON (open it in Perfetto or
// chrome://tracing) and prints the per-stage latency breakdown.
//
// Trace ids are the command ids already carried by every message, so
// tracing adds no wire bytes: a traced run's simulated timing is
// identical to an untraced one, and the measurement tables match
// bit-for-bit (the trace sections are strictly additive output).
// enable() must run before any client starts sending.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/report.h"
#include "sim/simulation.h"

namespace epx::harness {

struct TraceFlags {
  std::string out;       ///< --trace-out=<path>; empty = tracing off
  uint64_t sample = 16;  ///< --trace-sample=<n>: export 1 in n spans

  bool enabled() const { return !out.empty(); }

  /// Scans argv for --trace-out= / --trace-sample=; unknown arguments
  /// are left for the binary's own parser.
  static TraceFlags parse(int argc, char** argv) {
    TraceFlags flags;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
        flags.out = argv[i] + 12;
      } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
        flags.sample = std::strtoull(argv[i] + 15, nullptr, 10);
        if (flags.sample == 0) flags.sample = 1;
      }
    }
    return flags;
  }

  /// Arms spans, monitors and the flight-recorder dump path. Call right
  /// after cluster construction, before any load.
  void enable(sim::Simulation& sim) const {
    if (!enabled()) return;
    sim.spans().set_enabled(true);
    sim.spans().set_sample_every(sample);
    sim.monitors().set_enabled(true);
    sim.flight_recorder().set_path_prefix(out + ".flight.");
  }

  /// Exports the Chrome trace and prints the stage breakdown. A no-op
  /// without --trace-out, so untraced stdout is unchanged.
  void finish(sim::Simulation& sim) const {
    if (!enabled()) return;
    print_stage_table(sim.metrics(), "Per-stage latency breakdown",
                      default_stage_rows());
    const size_t events = sim.spans().export_chrome_trace(out, &sim.trace());
    print_header("Trace export");
    std::printf("wrote %zu trace events to %s (sampling 1/%llu, %llu sampled "
                "spans dropped)\n",
                events, out.c_str(),
                static_cast<unsigned long long>(sample),
                static_cast<unsigned long long>(sim.spans().dropped_spans()));
    if (sim.monitors().violation_count() > 0) {
      std::printf("monitor violations: %llu\n%s",
                  static_cast<unsigned long long>(sim.monitors().violation_count()),
                  sim.monitors().summary().c_str());
      if (!sim.flight_recorder().last_path().empty()) {
        std::printf("flight recorder dump: %s\n",
                    sim.flight_recorder().last_path().c_str());
      }
    } else {
      std::printf("invariant monitors: clean (order, gap, alignment)\n");
    }
  }
};

}  // namespace epx::harness
