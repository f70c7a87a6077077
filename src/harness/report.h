// Report: text output matching the paper's figures.
//
// Each bench prints per-second rows (the time series a figure plots),
// per-phase interval averages (Fig. 3's "Interval avg." line), latency
// percentiles, and a PAPER-CHECK verdict comparing the measured shape
// against the paper's claim.
//
// The report layer is a pure consumer of the observability registry:
// columns name metrics by their canonical key (`name{k=v,...}`, see
// obs::metric_key) and every renderer resolves the key at print time.
// A metric that does not exist — a role was never instantiated, or was
// destroyed mid-run by an elastic unsubscribe — renders as 0.0 instead
// of chasing a dangling pointer into freed role state. A window older
// than the instruments' bounded ring (util/timeseries.h) renders as
// "-", and the table ends with one note pointing at --telemetry-out,
// which records a run of any length.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/timeseries.h"

namespace epx::harness {

/// One column of a per-second rate table, fed by a registry counter.
struct RateColumn {
  std::string label;
  /// Canonical registry key of a counter (obs::metric_key(...)).
  std::string metric;
  /// Multiplier applied to the rate (e.g. bytes -> Mbps).
  double scale = 1.0;
};

/// One column of a per-second CPU-utilisation table (0..100%), fed by a
/// busy-nanoseconds counter (`cpu.busy{node=...}`).
struct CpuColumn {
  std::string label;
  std::string metric;
};

/// Per-second latency percentile column, fed by a registry timer.
struct LatencyColumn {
  std::string label;
  std::string metric;
  double quantile = 0.95;
};

/// One row of a per-stage latency table (count / p50 / p99 over the
/// whole run), fed by a span-layer timer such as `span.propose_wait` or
/// `merge.skew_wait{stream=2}` (see obs/span.h).
struct StageRow {
  std::string label;
  /// Canonical registry key of a timer (obs::metric_key(...)).
  std::string metric;
};

void print_header(const std::string& title);

// The render_* functions produce the exact table text (used by tests to
// check output without capturing stdout); the print_* wrappers emit it.

/// "t  col1  col2 ..." rows for each 1 s window in [from, to).
std::string render_rate_table(const obs::MetricsRegistry& metrics,
                              const std::string& title,
                              const std::vector<RateColumn>& columns, Tick from,
                              Tick to);
void print_rate_table(const obs::MetricsRegistry& metrics, const std::string& title,
                      const std::vector<RateColumn>& columns, Tick from, Tick to);

std::string render_cpu_table(const obs::MetricsRegistry& metrics,
                             const std::string& title,
                             const std::vector<CpuColumn>& columns, Tick from,
                             Tick to);
void print_cpu_table(const obs::MetricsRegistry& metrics, const std::string& title,
                     const std::vector<CpuColumn>& columns, Tick from, Tick to);

std::string render_latency_table(const obs::MetricsRegistry& metrics,
                                 const std::string& title,
                                 const std::vector<LatencyColumn>& columns,
                                 Tick from, Tick to);
void print_latency_table(const obs::MetricsRegistry& metrics, const std::string& title,
                         const std::vector<LatencyColumn>& columns, Tick from,
                         Tick to);

/// Per-stage latency breakdown: one row per lifecycle stage with the
/// sample count and cumulative p50/p99 in milliseconds. Rows whose
/// timer is absent (stage never traced) render as zeros, like every
/// other column type.
std::string render_stage_table(const obs::MetricsRegistry& metrics,
                               const std::string& title,
                               const std::vector<StageRow>& rows);
void print_stage_table(const obs::MetricsRegistry& metrics, const std::string& title,
                       const std::vector<StageRow>& rows);

/// The default lifecycle breakdown (propose-wait, quorum-wait,
/// merge-skew-wait, apply, end-to-end) published by obs::SpanCollector.
std::vector<StageRow> default_stage_rows();

/// Prints the average rate of the named counter within each phase
/// delimited by `boundaries`. A missing metric renders zero rates.
void print_phase_averages(const obs::MetricsRegistry& metrics, const std::string& title,
                          const std::string& metric,
                          const std::vector<Tick>& boundaries, Tick end);

/// Records a paper-vs-measured comparison; prints PASS/FAIL.
void paper_check(const std::string& id, const std::string& claim, bool pass,
                 const std::string& measured);

/// Writes a full registry snapshot (counters, gauges, timers — see
/// obs::MetricsRegistry::to_json) to `path`. Returns false on I/O error.
bool write_json_snapshot(const obs::MetricsRegistry& metrics, const std::string& path,
                         bool include_series = true);

}  // namespace epx::harness
