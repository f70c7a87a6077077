// Central metrics registry: the observability backbone of the repo.
//
// Every layer (simulator, network, Paxos roles, mergers, KV store,
// harness clients) publishes named, label-tagged metrics here instead of
// keeping private counters behind getters. Three instrument types cover
// everything the paper's figures need:
//
//   * Counter — monotonic event count with a windowed per-second series
//     (throughput-over-time panels, Figs. 3-5),
//   * Gauge   — instantaneous value with a high-water mark (queue
//     depths, trim positions),
//   * Timer   — latency distribution: one cumulative histogram plus
//     per-second window histograms (the p95-over-time panels).
//
// Counter and Timer keep their per-window history in one bounded
// WindowRing (util/timeseries.h): 1 s windows, the newest 1024 retained
// (~17 virtual minutes), older windows read as empty. Finding the current
// window costs two compares (no division); totals cover every sample over
// any horizon, and memory stays bounded however long the run.
//
// Metrics are OWNED by the registry; roles hold stable handles. A role
// that dies at run time (an elastic unsubscribe destroys its learner)
// leaves its metrics behind, so report code can never dereference freed
// state — the lifetime-hazard class the old raw-pointer report columns
// had.
//
// Identity is the canonical key "name{label=value,...}" with labels
// sorted by label name. Lookup during registration is a map find (cold
// path); recording through a handle is one add on the hot path.
// Iteration order is deterministic (sorted by key), which keeps every
// report and JSON snapshot byte-stable for a fixed simulation seed.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace epx::obs {

/// One label dimension, e.g. {"stream", "2"} or {"node", "replica1"}.
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/// Canonical metric key: `name` alone, or `name{k1=v1,k2=v2}` with
/// labels sorted by key. All registry lookups use this form.
std::string metric_key(std::string_view name, Labels labels);

/// Monotonic event counter with a per-second windowed series.
class Counter {
 public:
  void add(Tick now, uint64_t count = 1) { series_.add(now, count); }

  uint64_t total() const { return series_.total(); }
  const WindowedCounter& series() const { return series_; }

 private:
  WindowedCounter series_;
};

/// Instantaneous value plus its high-water mark.
class Gauge {
 public:
  void set(double value) {
    value_ = value;
    if (value > max_) max_ = value;
  }
  void add(double delta) { set(value_ + delta); }

  double value() const { return value_; }
  double max() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

/// Latency recorder: cumulative histogram + per-window histograms held
/// in the same bounded WindowRing as Counter's series.
class Timer {
 public:
  void record(Tick now, Tick value) {
    total_.record(value);
    windows_.at(now).record(value);
  }

  const Histogram& total() const { return total_; }
  Tick window() const { return WindowRing<Histogram>::kWidth; }

  /// One past the newest window index started so far (0 before the
  /// first record) — the bound report loops iterate to.
  size_t window_count() const { return windows_.size(); }
  /// Oldest window still held; window_at() is nullptr below it.
  size_t first_retained() const { return windows_.first_retained(); }

  /// Histogram for window `idx`, or nullptr when the window aged out of
  /// the ring or lies beyond the newest recorded window. Callers treat
  /// nullptr as an empty window.
  const Histogram* window_at(size_t idx) const { return windows_.find(idx); }

 private:
  Histogram total_;
  WindowRing<Histogram> windows_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (idempotent: same key returns the same instrument) --
  // Registration is mutex-serialised so roles created lazily on shard
  // workers (e.g. a replica's first-delivery per-stream counter) can
  // register concurrently; handles stay stable (map nodes never move).
  // Recording through a handle stays lock-free — each instrument is
  // owned by one shard.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Timer& timer(std::string_view name, Labels labels = {});

  // --- queries by canonical key; nullptr when absent -------------------
  const Counter* find_counter(std::string_view key) const;
  const Gauge* find_gauge(std::string_view key) const;
  const Timer* find_timer(std::string_view key) const;

  // --- deterministic iteration (sorted by canonical key) ---------------
  using CounterMap = std::map<std::string, std::unique_ptr<Counter>, std::less<>>;
  using GaugeMap = std::map<std::string, std::unique_ptr<Gauge>, std::less<>>;
  using TimerMap = std::map<std::string, std::unique_ptr<Timer>, std::less<>>;
  const CounterMap& counters() const { return counters_; }
  const GaugeMap& gauges() const { return gauges_; }
  const TimerMap& timers() const { return timers_; }

  size_t size() const { return counters_.size() + gauges_.size() + timers_.size(); }

  /// Machine-readable snapshot of every metric. Counters report their
  /// total and (optionally) the per-second rate series; gauges report
  /// value and max; timers report count/mean/p50/p95/p99 in
  /// milliseconds. Keys are emitted in sorted order, so the output is
  /// byte-stable for a deterministic run.
  std::string to_json(bool include_series = true) const;

 private:
  mutable std::mutex mu_;  // guards registration only
  CounterMap counters_;
  GaugeMap gauges_;
  TimerMap timers_;
};

}  // namespace epx::obs
