// TelemetryFlags: the shared `--telemetry-out` command line of the bench
// and example binaries.
//
// `--telemetry-out=<path>` switches the in-sim telemetry plane on: every
// process gets a TelemetryAgent scraping its instruments at the
// configured virtual-time interval into a MonitorService node, and after
// the run finish() writes the `epx-timeline/v1` JSON consumed by
// tools/epx-report (validate_timeline.py / render_timeline.py).
//
// Telemetry traffic is part of the workload — scrapes cost agent CPU,
// NIC bandwidth and monitor CPU — so unlike --trace-out the simulated
// timing of an instrumented run legitimately differs from a bare one.
// The default (flag absent) run builds no agents and sends no messages,
// keeping stdout byte-identical to pre-telemetry builds; the timeline
// itself is bit-identical between the serial and parallel engines.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "harness/cluster.h"
#include "harness/report.h"
#include "obs/telemetry.h"

namespace epx::harness {

struct TelemetryFlags {
  std::string out;             ///< --telemetry-out=<path>; empty = off
  uint64_t interval_ms = 100;  ///< --telemetry-interval-ms=<n>, sim time

  bool enabled() const { return !out.empty(); }

  /// Scans argv for --telemetry-out= / --telemetry-interval-ms=; unknown
  /// arguments are left for the binary's own parser.
  static TelemetryFlags parse(int argc, char** argv) {
    TelemetryFlags flags;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0) {
        flags.out = argv[i] + 16;
      } else if (std::strncmp(argv[i], "--telemetry-interval-ms=", 24) == 0) {
        flags.interval_ms = std::strtoull(argv[i] + 24, nullptr, 10);
        if (flags.interval_ms == 0) flags.interval_ms = 100;
      }
    }
    return flags;
  }

  Tick interval() const { return static_cast<Tick>(interval_ms) * kMillisecond; }

  /// For multi-cluster drivers (recovery_matrix): a copy
  /// whose output path carries a scenario tag, `x.json` -> `x.<tag>.json`.
  TelemetryFlags with_tag(const char* tag) const {
    TelemetryFlags flags = *this;
    if (flags.enabled()) {
      const std::string suffix = std::string(".") + tag;
      const size_t dot = flags.out.rfind('.');
      if (dot == std::string::npos) {
        flags.out += suffix;
      } else {
        flags.out.insert(dot, suffix);
      }
    }
    return flags;
  }

  /// Turns the telemetry plane on in the options the Cluster will be
  /// built from. Must run before the Cluster constructor (agents attach
  /// as processes are created).
  void apply(ClusterOptions& options) const {
    if (!enabled()) return;
    options.telemetry.enabled = true;
    options.telemetry.interval = interval();
  }

  /// Flushes SLO dumps deferred by the parallel engine and writes the
  /// timeline JSON. Strictly additive output: a no-op without
  /// --telemetry-out.
  void finish(Cluster& cluster) const {
    if (!enabled()) return;
    registry::MonitorService* monitor = cluster.monitor_service();
    if (monitor == nullptr) return;
    monitor->flush_pending_dumps();
    const std::string json = obs::render_timeline_json(
        monitor->store(), cluster.sim().trace().annotations(), &monitor->slo(),
        cluster.now(), interval());
    std::ofstream file(out, std::ios::binary);
    file << json;
    file.close();
    print_header("Telemetry timeline");
    std::printf(
        "wrote %zu bytes to %s (%llu samples, %llu points, %zu keys, "
        "%zu SLO violations)\n",
        json.size(), out.c_str(),
        static_cast<unsigned long long>(monitor->store().samples_ingested()),
        static_cast<unsigned long long>(monitor->store().points_ingested()),
        monitor->store().keys().size(), monitor->slo().violations().size());
  }
};

}  // namespace epx::harness
