// Flight recorder: post-mortem snapshots for monitor violations and
// failing tests.
//
// When an invariant monitor fires (or a test assertion fails), the state
// that explains the failure is usually gone by the time anyone looks: the
// trace ring keeps overwriting, metrics keep accumulating, queue depths
// change. The flight recorder freezes the evidence at the moment of
// failure into one JSON file:
//
//   {
//     "reason":      why the dump was taken,
//     "sim_time_ns": virtual time of the dump,
//     "dump_seq":    per-recorder sequence number,
//     "trace":       the last 512 protocol trace-ring events,
//     "queue_depths": per-node inbox depth + high-water mark
//                     (from the `inbox.depth{node=...}` gauges),
//     "telemetry":   the last-N scraped windows of every stored series
//                    (when a TimeSeriesStore is bound — the windowed
//                    history a point-in-time metrics snapshot lacks),
//     "metrics":     the full MetricsRegistry snapshot (no series)
//   }
//
// Dumps are written only on demand — the recorder holds two const
// pointers and costs nothing until dump() is called. Output goes to
// `<prefix><seq>.json`; an empty prefix disables file output (dump()
// still returns the JSON for in-memory consumers).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/units.h"

namespace epx::obs {

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const MetricsRegistry* metrics, const Trace* trace)
      : metrics_(metrics), trace_(trace) {}

  void bind(const MetricsRegistry* metrics, const Trace* trace) {
    metrics_ = metrics;
    trace_ = trace;
  }

  /// Optional: the telemetry store whose windowed history dumps should
  /// carry (the MonitorService binds its TimeSeriesStore here). `windows`
  /// caps the trailing points emitted per series.
  void bind_telemetry(const TimeSeriesStore* store, size_t windows = 32) {
    telemetry_ = store;
    max_telemetry_windows_ = windows;
  }

  /// Path prefix for dump files; `<prefix><seq>.json`. Empty (the
  /// default) disables writing — dump() only builds the JSON.
  void set_path_prefix(std::string prefix) { path_prefix_ = std::move(prefix); }

  /// Takes a snapshot. Returns the dump JSON; writes it to
  /// `<prefix><seq>.json` when a prefix is set.
  std::string dump(const std::string& reason, Tick now);

  uint64_t dumps() const { return dumps_; }
  /// Path of the most recent written dump ("" when none was written).
  const std::string& last_path() const { return last_path_; }

 private:
  const MetricsRegistry* metrics_ = nullptr;
  const Trace* trace_ = nullptr;
  const TimeSeriesStore* telemetry_ = nullptr;
  size_t max_telemetry_windows_ = 32;
  std::string path_prefix_;
  uint64_t dumps_ = 0;
  std::string last_path_;
};

}  // namespace epx::obs
