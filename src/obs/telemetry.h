// In-sim telemetry plane: the data structures behind virtual-time metric
// scraping (DESIGN.md §16).
//
// The paper's elasticity story is about signals *over time* — throughput
// before/during/after a subscribe, latency through a split, merge skew
// while a new stream aligns — but the MetricsRegistry only answers
// end-of-run questions. This header adds the pieces that turn registry
// instruments into time series without leaving the simulation:
//
//   * TelemetryPoint / TelemetrySample — one scraped window of one node,
//     the payload of the kTelemetrySample wire message. Scrape traffic
//     travels the simulated network, so observation costs real sim
//     bandwidth and CPU like it would in production.
//   * ScrapeSet — the per-process subscription list: which instruments a
//     TelemetryAgent snapshots, plus the per-instrument baselines that
//     turn cumulative counters/histograms into window deltas.
//   * TimeSeriesStore — the monitor-side store: per-(node, metric key)
//     ring of points with pair-merge downsampling past a retention
//     horizon, and the range/latest/aggregate query API a future
//     elasticity controller consumes (ROADMAP item 2).
//   * SloEngine — declarative threshold rules evaluated on ingest;
//     violations fire a handler (trace event + flight-recorder dump in
//     the MonitorService) once per breach episode.
//
// Everything here is sim/net-independent pure data — epx_obs stays a
// leaf library. The wire message lives in registry/messages.h and the
// agent/service glue in registry/monitor_service.h.
//
// Determinism: scrapes read only instruments owned by the scraped
// process (same shard), samples travel canonical network channels, and
// the store/engine are touched only by the MonitorService's handlers —
// so a telemetry-enabled run is bit-identical between the serial and
// parallel engines, with no single-thread fallback (unlike spans and
// monitors).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/histogram.h"
#include "util/units.h"

namespace epx::obs {

enum class PointKind : uint8_t {
  kCounter = 0,  ///< v0 = window delta, v1 = cumulative total
  kGauge = 1,    ///< v0 = value at scrape, v1 = high-water mark
  kTimer = 2,    ///< v0 = window count, v1/v2/v3 = window p50/p95/p99 ticks
};

const char* point_kind_name(PointKind kind);

/// Interned canonical metric key. A watch interns its key once at
/// registration; every scrape after that ships the same shared string,
/// so the steady-state scrape path allocates no key bytes and the
/// monitor can index series by pointer identity (TimeSeriesStore keeps
/// the canonical text-keyed map for deterministic export iteration).
using MetricKeyPtr = std::shared_ptr<const std::string>;

inline MetricKeyPtr intern_key(std::string key) {
  return std::make_shared<const std::string>(std::move(key));
}

/// One instrument's contribution to one scrape window. `key` is never
/// null on any produced point: scrape(), the wire decoder and every
/// test helper intern it at construction.
struct TelemetryPoint {
  MetricKeyPtr key;  ///< canonical metric key, `name{label=value,...}`
  PointKind kind = PointKind::kCounter;
  double v0 = 0.0;
  double v1 = 0.0;
  double v2 = 0.0;
  double v3 = 0.0;
};

/// Point-buffer recycling. scrape() draws its output vector from a
/// bounded thread-local freelist and the kTelemetrySample message
/// returns its vector here on destruction, so the steady-state
/// scrape → send → ingest cycle performs no heap allocation at all.
/// Purely a host-side optimisation: buffers are cleared before they
/// are pooled and carry no sim-visible state between uses.
std::vector<TelemetryPoint> acquire_point_buffer();
void release_point_buffer(std::vector<TelemetryPoint>&& buf);

/// One node's scrape window — the body of a kTelemetrySample message.
struct TelemetrySample {
  uint32_t node = 0;
  uint64_t seq = 0;       ///< per-agent sample sequence number, from 1
  Tick window_start = 0;  ///< inclusive
  Tick window_end = 0;    ///< the scrape instant
  std::vector<TelemetryPoint> points;
};

/// The set of instruments one process exposes to its TelemetryAgent,
/// with the baselines that turn cumulative instruments into windows.
/// Roles register in their constructors via Process::scrape_set();
/// registration order is construction order, which is deterministic, so
/// sample point order is too. Instruments are registry-owned and outlive
/// any role, so a watch can never dangle (the churn case in obs_test).
class ScrapeSet {
 public:
  /// All watches are idempotent by canonical key: re-registering after a
  /// role restart re-uses the existing baseline.
  void watch_counter(std::string key, const Counter* counter);
  void watch_gauge(std::string key, const Gauge* gauge);
  void watch_timer(std::string key, const Timer* timer);

  size_t size() const { return counters_.size() + gauges_.size() + timers_.size(); }

  /// Re-baselines every delta-tracked instrument without emitting, so
  /// the first window after a process restart excludes the outage.
  void rebase();

  /// Snapshots every watched instrument against its baseline and
  /// advances the baselines. Points appear in registration order.
  std::vector<TelemetryPoint> scrape();

 private:
  struct CounterWatch {
    MetricKeyPtr key;
    const Counter* counter;
    uint64_t last_total = 0;
  };
  struct GaugeWatch {
    MetricKeyPtr key;
    const Gauge* gauge;
  };
  struct TimerWatch {
    MetricKeyPtr key;
    const Timer* timer;
    Histogram last;  ///< snapshot of the cumulative histogram at the last scrape
  };

  std::vector<CounterWatch> counters_;
  std::vector<GaugeWatch> gauges_;
  std::vector<TimerWatch> timers_;
};

/// One stored point: the sample window's end time plus the four value
/// slots of the TelemetryPoint that produced it.
struct TsPoint {
  Tick t = 0;
  double v0 = 0.0;
  double v1 = 0.0;
  double v2 = 0.0;
  double v3 = 0.0;
};

/// One (node, metric key) series.
struct TsSeries {
  PointKind kind = PointKind::kCounter;
  std::vector<TsPoint> points;     ///< ascending by t
  uint64_t downsample_runs = 0;    ///< times the retention horizon merged pairs
};

/// Monitor-side store of everything the agents ship: a bounded ring of
/// points per (node, metric key) with deterministic pair-merge
/// downsampling past the retention horizon. The query API — range,
/// latest, cross-node aggregation — is the interface the autonomous
/// elasticity controller (ROADMAP item 2) will poll.
class TimeSeriesStore {
 public:
  /// Maximum points held per series. When a series fills, its oldest
  /// half is pair-merged (kind-aware: counter deltas sum, gauges/timer
  /// quantiles keep the later point's shape with maxes merged), freeing
  /// a quarter of the ring while keeping full resolution for the
  /// freshest half. Deterministic: a pure function of the ingested data.
  void set_retention(size_t max_points) { retention_ = max_points < 8 ? 8 : max_points; }
  size_t retention() const { return retention_; }

  void ingest(const TelemetrySample& sample) {
    ingest(sample.node, sample.window_end, sample.points);
  }
  /// Field-wise ingest so a caller holding a decoded wire message can
  /// feed its points without copying them into a TelemetrySample first.
  void ingest(uint32_t node, Tick window_end,
              const std::vector<TelemetryPoint>& points);

  uint64_t samples_ingested() const { return samples_; }
  uint64_t points_ingested() const { return points_; }

  // --- query API -------------------------------------------------------
  /// Node ids seen, ascending.
  std::vector<uint32_t> nodes() const;
  /// Metric keys seen (across all nodes), sorted, deduplicated.
  std::vector<std::string> keys() const;
  /// One node's series for an exact metric key; nullptr when absent.
  const TsSeries* series(uint32_t node, std::string_view key) const;
  /// Points of `key` from every node with t in [t0, t1], ordered by
  /// (t, node).
  std::vector<TsPoint> range(std::string_view key, Tick t0, Tick t1) const;
  /// The most recent point of `key` across all nodes; false when absent.
  bool latest(std::string_view key, TsPoint* out) const;
  /// Sums slot `field` (0..3) of the latest point of every series whose
  /// key starts with `prefix` — e.g. the cluster-wide delivery rate.
  double aggregate_latest(std::string_view prefix, int field) const;

  /// Deterministic iteration for exports: key -> node -> series, both
  /// levels sorted.
  using NodeSeries = std::map<uint32_t, TsSeries>;
  const std::map<std::string, NodeSeries, std::less<>>& all() const { return series_; }

 private:
  void downsample(TsSeries& s) const;

  /// Ingest fast path: (interned key pointer, node) -> series. Pure
  /// index into series_ — pointer identity is safe because pinned_
  /// keeps every indexed key alive, and a re-interned equal key simply
  /// gets a second index entry resolving to the same series.
  struct IndexKey {
    const std::string* key;
    uint32_t node;
    bool operator==(const IndexKey& o) const {
      return key == o.key && node == o.node;
    }
  };
  struct IndexHash {
    size_t operator()(const IndexKey& k) const {
      return std::hash<const void*>()(k.key) ^
             (static_cast<size_t>(k.node) * 0x9e3779b97f4a7c15ULL);
    }
  };

  size_t retention_ = 512;
  uint64_t samples_ = 0;
  uint64_t points_ = 0;
  std::map<std::string, NodeSeries, std::less<>> series_;
  std::unordered_map<IndexKey, TsSeries*, IndexHash> index_;
  std::vector<MetricKeyPtr> pinned_;
};

/// One declarative service-level objective. A rule names a metric (exact
/// canonical key, or a bare name matching every label set), a value slot,
/// and the *breach* condition; the rule fires after `windows` consecutive
/// breaching samples of the same series (burn-rate style debouncing).
struct SloRule {
  enum class Op : uint8_t { kGt, kLt };

  std::string id;      ///< short name used in violation events and dumps
  std::string metric;  ///< canonical key, or bare name (prefix of `name{`)
  int field = 0;       ///< which TsPoint slot to test (0..3)
  Op op = Op::kGt;     ///< breach when `value op threshold`
  double threshold = 0.0;
  uint32_t windows = 1;  ///< consecutive breaching windows before firing
  /// Divide the slot by the window length in seconds before comparing
  /// (turns counter deltas into rates: `threshold` is per-second).
  bool as_rate = false;

  // Common shapes, so call sites read like the SLO they encode.
  /// A gauge's high-water mark must stay under `limit`.
  static SloRule gauge_max(std::string id, std::string metric, double limit,
                           uint32_t windows = 1);
  /// A counter's per-second rate must stay under `limit` (burn rate).
  static SloRule counter_rate(std::string id, std::string metric, double limit,
                              uint32_t windows = 1);
};

struct SloViolation {
  Tick time = 0;
  std::string rule;  ///< SloRule::id
  std::string key;   ///< the concrete series that breached
  uint32_t node = 0;
  double value = 0.0;  ///< the evaluated value of the firing window
};

/// Evaluates SLO rules against every ingested sample. Pure bookkeeping —
/// the owner (MonitorService) installs a handler that records trace
/// events, bumps `slo.violations` and arms the flight recorder. A rule
/// fires once per breach episode: after firing it stays silent until the
/// series recovers (one non-breaching window) and breaches again.
class SloEngine {
 public:
  using Handler = std::function<void(const SloViolation&)>;

  void add_rule(SloRule rule) { rules_.push_back(std::move(rule)); }
  const std::vector<SloRule>& rules() const { return rules_; }

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  void evaluate(const TelemetrySample& sample) {
    evaluate(sample.node, sample.window_start, sample.window_end, sample.points);
  }
  /// Field-wise twin of evaluate(sample); see TimeSeriesStore::ingest.
  void evaluate(uint32_t node, Tick window_start, Tick window_end,
                const std::vector<TelemetryPoint>& points);

  const std::vector<SloViolation>& violations() const { return violations_; }

 private:
  struct Streak {
    uint32_t breaching = 0;
    bool fired = false;
  };

  std::vector<SloRule> rules_;
  Handler handler_;
  std::vector<SloViolation> violations_;
  /// (rule index, node, key) -> breach streak. Ordered for determinism.
  std::map<std::tuple<size_t, uint32_t, std::string>, Streak> streaks_;
};

/// Renders the run timeline consumed by tools/epx-report: schema
/// `epx-timeline/v1` with the scrape interval, cluster annotations
/// (sorted control-plane trace events), every stored series, and the SLO
/// rules + violations. Pure function of its inputs, so serial and
/// parallel runs of the same seed render byte-identical files (the
/// annotation *set* is deterministic; cross-shard ring order is not, so
/// events are totally ordered here before emission).
std::string render_timeline_json(const TimeSeriesStore& store,
                                 std::vector<TraceEvent> annotations,
                                 const SloEngine* slo, Tick end, Tick interval);

}  // namespace epx::obs
