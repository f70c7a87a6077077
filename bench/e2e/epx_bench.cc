// epx_bench: driver of the end-to-end benchmark (bench/e2e/README.md).
//
// One process runs one named workload once, on the serial engine or on
// four shards, and prints one JSON record: host cost (set-up time, wall
// time per virtual second, peak RSS), the protocol's own results in
// virtual time (throughput, latency, dips), per-layer counts read from
// the metrics registry, the engine's window counters, a digest of the
// virtual-time result and the workload's correctness gates. bench/e2e/
// run.py runs it repeatedly, aggregates the records and checks them.
//
// Every layer is measured from outside: wall time around the calls the
// driver makes into the harness and the simulation, public counters
// (events_processed(), engine_stats(), the registry) and, with
// --trace-out, the existing span collector. Registry names are read
// through prefix-matching helpers; a name the driver reads but the run
// never published fails the run, so a renamed metric cannot silently
// read as zero.
//
//   epx_bench --workload=<name> --seed=<n> --threads=<1|4> [--trace-out=<path>]
//   epx_bench --list        # workload and metric catalogue (JSON)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cluster.h"
#include "harness/kv_cluster.h"
#include "harness/load_client.h"
#include "harness/trace_flags.h"
#include "util/logging.h"

using namespace epx;           // NOLINT(google-build-using-namespace)
using namespace epx::harness;  // NOLINT(google-build-using-namespace)

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Catalogue: the workloads and metrics BENCHMARK.json names. run.py
// aggregates each metric from `field` of the per-process records picked
// by `source`: t1 / t4 = the untraced serial / 4-shard reps (run.py
// says which fields take the fastest rep and which the median),
// virtual = the serial record (deterministic per seed), traced = the
// traced record, derived = computed by run.py from other fields.
// ---------------------------------------------------------------------------

struct WorkloadInfo {
  const char* name;
  const char* why;
  int client_threads;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"kv-split",
     "Fig. 4 re-partition under 75% load: most small messages per virtual s, plus "
     "subscribe, registry repartition and client retry",
     100},
    {"kv-readmix",
     "near-saturating get/put/getrange mix on 2 partitions plus a global stream: dMerge "
     "skew, skip pacing and getrange signals, no reconfiguration",
     64},
    {"bcast-durable",
     "Fig. 5 stream swap with 32 KB values on write-ahead acceptors plus a full-ring "
     "power loss: per-byte cost, storage and recovery",
     60},
    {"geo-wan",
     "4-region WAN cluster with a cross-WAN subscribe: wide conservative windows "
     "and memory growth over a long virtual horizon",
     32},
};

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* better;
  bool end_to_end;
  const char* source;
  const char* field;
};

constexpr MetricInfo kMetrics[] = {
    // --- end to end ----------------------------------------------------------
    {"setup_s", "s", "lower", true, "t1", "setup_s"},
    {"host_ms_per_vs.t1", "ms/vs", "lower", true, "t1", "host_ms_per_vs"},
    {"peak_rss_mb", "MB", "lower", true, "t1", "peak_rss_mb"},
    {"ops_per_vs", "ops/vs", "higher", true, "virtual", "ops_per_vs"},
    {"lat_p50_ms", "ms", "lower", true, "virtual", "lat_p50_ms"},
    {"lat_p99_ms", "ms", "lower", true, "virtual", "lat_p99_ms"},
    // --- virtual-time results that not every workload has ---------------------
    {"failed_ops_pct", "%", "lower", false, "virtual", "failed_ops_pct"},
    {"dip_pct", "%", "lower", false, "virtual", "dip_pct"},
    {"outage_ms", "ms", "lower", false, "virtual", "outage_ms"},
    // --- sim: engine -------------------------------------------------------------
    {"sim.events_per_op", "1/op", "lower", false, "virtual", "events_per_op"},
    {"sim.ns_per_event.t1", "ns", "lower", false, "t1", "ns_per_event"},
    {"sim.ns_per_event.t4", "ns", "lower", false, "t4", "ns_per_event"},
    {"host_ms_per_vs.t4", "ms/vs", "lower", false, "t4", "host_ms_per_vs"},
    {"sim.windows_per_vs.t4", "1/vs", "lower", false, "t4", "windows_per_vs"},
    {"sim.window_us.t4", "us", "higher", false, "t4", "window_us"},
    {"sim.exchange_skip_pct.t4", "%", "higher", false, "t4", "exchange_skip_pct"},
    {"sim.speedup.t4", "x", "higher", false, "derived", "host_ms_per_vs"},
    // --- sim: network ------------------------------------------------------------
    {"net.msgs_per_op", "1/op", "lower", false, "virtual", "net.msgs_per_op"},
    {"net.bytes_per_op", "B/op", "lower", false, "virtual", "net.bytes_per_op"},
    {"net.egress_bytes_per_op", "B/op", "lower", false, "virtual",
     "net.egress_bytes_per_op"},
    {"net.dropped", "count", "lower", false, "virtual", "net.dropped"},
    // --- sim storage + paxos acceptor store --------------------------------------
    {"wal.appends_per_op", "1/op", "lower", false, "virtual", "wal.appends_per_op"},
    {"storage.appends_per_fsync", "count", "higher", false, "virtual",
     "storage.appends_per_fsync"},
    {"storage.fsync_wait_p99_ms", "ms", "lower", false, "virtual",
     "storage.fsync_wait_p99_ms"},
    {"acceptor.replays", "count", "lower", false, "virtual", "acceptor.replays"},
    // --- paxos -------------------------------------------------------------------
    {"coord.commands_per_vs", "1/vs", "higher", false, "virtual", "coord.commands_per_vs"},
    {"coord.skips_per_vs", "1/vs", "lower", false, "virtual", "coord.skips_per_vs"},
    {"acceptor.decisions_per_op", "1/op", "lower", false, "virtual",
     "acceptor.decisions_per_op"},
    {"coord.retries", "count", "lower", false, "virtual", "coord.retries"},
    {"acceptor.recoveries", "count", "lower", false, "virtual", "acceptor.recoveries"},
    {"learner.gap_repairs", "count", "lower", false, "virtual", "learner.gap_repairs"},
    {"cpu.coord_max_pct", "%", "lower", false, "virtual", "cpu.coord_max_pct"},
    {"cpu.acceptor_max_pct", "%", "lower", false, "virtual", "cpu.acceptor_max_pct"},
    // --- elastic / multicast -----------------------------------------------------
    {"merge.scan_slots_per_op", "1/op", "lower", false, "virtual",
     "merge.scan_slots_per_op"},
    {"merge.discarded", "count", "lower", false, "virtual", "merge.discarded"},
    {"merge.subscribe_ms", "ms", "lower", false, "virtual", "merge.subscribe_ms"},
    {"cpu.replica_max_pct", "%", "lower", false, "virtual", "cpu.replica_max_pct"},
    // --- kvstore / registry / harness clients ------------------------------------
    {"kv.executed_per_op", "1/op", "lower", false, "virtual", "kv.executed_per_op"},
    {"kv.signals_per_op", "1/op", "lower", false, "virtual", "kv.signals_per_op"},
    {"kv.discarded", "count", "lower", false, "virtual", "kv.discarded"},
    {"kv.snapshot_mb", "MB", "lower", false, "virtual", "kv.snapshot_mb"},
    {"registry.notifications", "count", "lower", false, "virtual",
     "registry.notifications"},
    {"client.retries", "count", "lower", false, "virtual", "client.retries"},
    {"client.lat_samples", "count", "higher", false, "virtual", "client.lat_samples"},
    // --- obs and host memory -----------------------------------------------------
    {"obs.trace_overhead_pct", "%", "lower", false, "derived", "host_ms_per_vs"},
    {"obs.export_ms", "ms", "lower", false, "traced", "export_ms"},
    {"obs.monitor_violations", "count", "lower", false, "traced", "monitor_violations"},
    {"mem.rss_slope_kb_per_vs", "KB/vs", "lower", false, "t1", "rss_slope_kb_per_vs"},
    // --- virtual stage latency (traced run) --------------------------------------
    {"stage.propose_wait.p50_ms", "ms", "lower", false, "traced", "stage.propose_wait.p50_ms"},
    {"stage.propose_wait.p99_ms", "ms", "lower", false, "traced", "stage.propose_wait.p99_ms"},
    {"stage.quorum_wait.p50_ms", "ms", "lower", false, "traced", "stage.quorum_wait.p50_ms"},
    {"stage.quorum_wait.p99_ms", "ms", "lower", false, "traced", "stage.quorum_wait.p99_ms"},
    {"stage.durable_wait.p50_ms", "ms", "lower", false, "traced", "stage.durable_wait.p50_ms"},
    {"stage.durable_wait.p99_ms", "ms", "lower", false, "traced", "stage.durable_wait.p99_ms"},
    {"stage.learn_wait.p50_ms", "ms", "lower", false, "traced", "stage.learn_wait.p50_ms"},
    {"stage.learn_wait.p99_ms", "ms", "lower", false, "traced", "stage.learn_wait.p99_ms"},
    {"stage.skew_wait.p50_ms", "ms", "lower", false, "traced", "stage.skew_wait.p50_ms"},
    {"stage.skew_wait.p99_ms", "ms", "lower", false, "traced", "stage.skew_wait.p99_ms"},
    {"stage.apply.p50_ms", "ms", "lower", false, "traced", "stage.apply.p50_ms"},
    {"stage.apply.p99_ms", "ms", "lower", false, "traced", "stage.apply.p99_ms"},
    {"stage.e2e.p50_ms", "ms", "lower", false, "traced", "stage.e2e.p50_ms"},
    {"stage.e2e.p99_ms", "ms", "lower", false, "traced", "stage.e2e.p99_ms"},
    // --- host time by phase ------------------------------------------------------
    {"host.phase_ms_per_vs.steady", "ms/vs", "lower", false, "t1", "phase_steady_ms_per_vs"},
    {"host.phase_ms_per_vs.disrupt", "ms/vs", "lower", false, "t1", "phase_disrupt_ms_per_vs"},
};

/// Lifecycle stages of the traced run: catalogue stage name -> the
/// span-layer timer that records it (obs/span.h).
constexpr std::pair<const char*, const char*> kStages[] = {
    {"propose_wait", "span.propose_wait"}, {"quorum_wait", "span.quorum_wait"},
    {"durable_wait", "span.durable_wait"}, {"learn_wait", "span.learn_wait"},
    {"skew_wait", "merge.skew_wait"},      {"apply", "span.apply"},
    {"e2e", "span.e2e"},
};

/// Registry names only observation publishes (spans, monitors, the trace
/// ring). The result digest leaves them out: a traced run must digest
/// exactly like an untraced one.
constexpr const char* kObservationPrefixes[] = {"span.", "merge.skew_wait", "monitor.",
                                                "trace."};

// ---------------------------------------------------------------------------
// Small JSON writer (flat objects of numbers, strings and nested objects).
// ---------------------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += json_string(key) + ": " + value;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) { return raw(key, json_number(v)); }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Registry reader: prefix-matching helpers that remember every name they
// were asked for and which of those the run never published.
// ---------------------------------------------------------------------------

bool matches(std::string_view key, std::string_view name) {
  return key == name || (key.size() > name.size() && key.substr(0, name.size()) == name &&
                         key[name.size()] == '{');
}

/// Value of `label` in a canonical key `name{k1=v1,k2=v2}`, or "".
std::string label_value(std::string_view key, std::string_view label) {
  const size_t open = key.find('{');
  if (open == std::string_view::npos) return "";
  std::string_view rest = key.substr(open + 1, key.size() - open - 2);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const size_t eq = pair.find('=');
    if (pair.substr(0, eq) == label) return std::string(pair.substr(eq + 1));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return "";
}

class Reader {
 public:
  explicit Reader(const obs::MetricsRegistry& metrics) : metrics_(metrics) {}

  /// Counters named `name` (any labels) whose key carries every label in
  /// `labels`. `required` = the workload must publish it.
  std::vector<const obs::Counter*> counters(std::string_view name, bool required = true,
                                            const obs::Labels& labels = {}) {
    std::vector<const obs::Counter*> out;
    for (const auto& [key, counter] : metrics_.counters()) {
      if (matches(key, name) && all_labels(key, labels)) out.push_back(counter.get());
    }
    note(name, required, !out.empty());
    return out;
  }

  /// Sum of the counters' windows starting in [from, to).
  uint64_t count(std::string_view name, Tick from, Tick to, bool required = true,
                 const obs::Labels& labels = {}) {
    uint64_t total = 0;
    for (const obs::Counter* c : counters(name, required, labels)) {
      total += c->series().total_in(from, to);
    }
    return total;
  }

  uint64_t total(std::string_view name, bool required = true) {
    uint64_t total = 0;
    for (const obs::Counter* c : counters(name, required)) total += c->total();
    return total;
  }

  /// Counter `name`, label set by label set, as (key, counter) pairs.
  std::vector<std::pair<std::string, const obs::Counter*>> keyed(std::string_view name) {
    std::vector<std::pair<std::string, const obs::Counter*>> out;
    for (const auto& [key, counter] : metrics_.counters()) {
      if (matches(key, name)) out.emplace_back(key, counter.get());
    }
    note(name, true, !out.empty());
    return out;
  }

  /// Every timer named `name` merged; `windows` restricts to the 1-s
  /// windows starting in [from, to), otherwise the cumulative histogram.
  Histogram timers(std::string_view name, bool required, bool windows = false,
                   Tick from = 0, Tick to = 0) {
    Histogram out;
    bool found = false;
    for (const auto& [key, timer] : metrics_.timers()) {
      if (!matches(key, name)) continue;
      found = true;
      if (!windows) {
        out.merge(timer->total());
        continue;
      }
      for (Tick t = from; t < to; t += timer->window()) {
        if (const Histogram* h = timer->window_at(static_cast<size_t>(t / timer->window()))) {
          out.merge(*h);
        }
      }
    }
    note(name, required, found);
    return out;
  }

  /// The unlabelled aggregate timer `name` (span stages also publish
  /// per-stream copies, which a prefix merge would double count).
  Histogram aggregate_timer(std::string_view name, bool required) {
    for (const auto& [key, timer] : metrics_.timers()) {
      if (key == name) {
        note(name, required, true);
        return timer->total();
      }
    }
    note(name, required, false);
    return Histogram();
  }

  const std::vector<std::string>& missing() const { return missing_; }

 private:
  static bool all_labels(std::string_view key, const obs::Labels& labels) {
    for (const auto& [label, value] : labels) {
      if (label_value(key, label) != value) return false;
    }
    return true;
  }

  void note(std::string_view name, bool required, bool found) {
    if (!required || found) return;
    if (std::find(missing_.begin(), missing_.end(), name) == missing_.end()) {
      missing_.emplace_back(name);
    }
  }

  const obs::MetricsRegistry& metrics_;
  std::vector<std::string> missing_;
};

/// Quantile `q` in milliseconds, linearly interpolated inside the
/// histogram bucket that holds it. Histogram::quantile() returns the
/// bucket's upper bound, so on its own a percentile moves in ~4% steps
/// and reads the same for every seed; the interpolation recovers the
/// rank's position inside the bucket from the public quantile() alone.
double quantile_ms(const Histogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0.0;
  if (n == 1) return to_millis(h.max());
  // Value of the r-th smallest sample's bucket (1-based rank).
  auto at_rank = [&](uint64_t r) {
    return h.quantile((static_cast<double>(r) - 0.5) / static_cast<double>(n - 1));
  };
  const double x = q * static_cast<double>(n - 1) + 1.0;  // continuous rank
  const auto rank = static_cast<uint64_t>(x);
  const Tick upper = at_rank(rank);
  uint64_t lo = 1, hi = rank;  // first rank in the bucket
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < upper) lo = mid + 1; else hi = mid;
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n;  // last rank in the bucket
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at_rank(mid) > upper) hi = mid - 1; else lo = mid;
  }
  const uint64_t last = lo;
  const Tick lower = first > 1 ? at_rank(first - 1) + 1 : h.min();
  const double frac = (x - static_cast<double>(first) + 1.0) /
                      static_cast<double>(last - first + 1);
  return to_millis(lower) + (to_millis(upper) - to_millis(lower)) * std::min(frac, 1.0);
}

uint64_t fnv1a(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Run: one workload execution. Owns the host-time accounting (set-up,
// per-slice wall time, RSS samples, the driver's own spans), the
// workload's timeline annotations and its correctness gates.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  size_t threads = 1;
  std::string trace_out;
  bool traced() const { return !trace_out.empty(); }
};

class Run {
 public:
  static constexpr Tick kWarmup = 10 * kSecond;
  static constexpr Tick kRssSlice = 10 * kSecond;

  explicit Run(Options options) : options_(std::move(options)), t0_(Clock::now()) {}

  const Options& options() const { return options_; }

  /// Cluster options every workload starts from: seed and shard count.
  ClusterOptions cluster_options(ClusterOptions base) const {
    base.seed = options_.seed;
    base.threads = options_.threads;
    return base;
  }

  /// A host-time span of the driver's own calls (written next to the
  /// Chrome trace of a traced run).
  class Span {
   public:
    Span(Run* run, std::string name) : run_(run), name_(std::move(name)), start_(Clock::now()) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }
    void end() {
      if (run_ == nullptr) return;
      run_->spans_.push_back({std::move(name_), start_, Clock::now()});
      run_ = nullptr;
    }

   private:
    Run* run_;
    std::string name_;
    Clock::time_point start_;
  };

  /// Runs `fn` (a controller or cluster operation) inside a named span.
  template <typename F>
  void op(const char* name, F&& fn) {
    Span span(this, name);
    fn();
  }

  /// Binds the built cluster. Traced runs arm spans (1/256 sampled),
  /// monitors, the verbose ring and the flight recorder here, before any
  /// client starts.
  void attach(sim::Simulation& sim, Tick end) {
    sim_ = &sim;
    end_ = end;
    slice_wall_.assign(static_cast<size_t>(end / kSecond) + 1, 0.0);
    if (options_.traced()) {
      TraceFlags flags;
      flags.out = options_.trace_out;
      flags.sample = 256;
      flags.enable(sim);
    }
  }

  /// Advances virtual time to `t` (at most the workload's end) in slices
  /// that end on whole virtual seconds, charging each slice's wall time
  /// to the second it started in.
  void advance(Tick t) {
    t = std::min(t, end_);
    while (sim_->now() < t) {
      const Tick now = sim_->now();
      const Tick next = std::min(t, (now / kSecond + 1) * kSecond);
      Span span(this, "run_until");
      const auto w0 = Clock::now();
      sim_->run_until(next);
      const auto w1 = Clock::now();
      span.end();
      slice_wall_[static_cast<size_t>(now / kSecond)] += seconds_between(w0, w1);
      if (next == kWarmup) mark_warm(w1);
      if (next >= kWarmup && next % kRssSlice == 0) {
        rss_samples_.emplace_back(to_seconds(next), peak_rss_kb());
      }
      if (next == end_) end_wall_ = w1;
    }
  }

  /// Reconfiguration instants (dip_pct) and disruption windows (the
  /// host-time phase split).
  void reconfiguration_at(Tick t) { reconfigs_.push_back(t); }
  void disruption(Tick from, Tick to) { disruptions_.emplace_back(from, to); }
  void set_outage(Tick ticks) { outage_ms_ = to_millis(ticks); }

  /// Client completions in the 1-s windows starting in [from, to),
  /// summed across every client.
  uint64_t completions_in(Reader& reader, Tick from, Tick to) const {
    uint64_t n = 0;
    for (const obs::Counter* c : reader.counters("client.completions")) {
      n += c->series().total_in(from, to);
    }
    return n;
  }

  /// 100 x (1 - worst 1-s completion rate from the first reconfiguration
  /// until 10 s after the last / mean rate over the 10 s before the first).
  /// 0 for a workload without reconfigurations.
  double dip_pct() const {
    if (reconfigs_.empty()) return 0.0;
    Reader reader(sim_->metrics());
    const Tick first = reconfigs_.front() / kSecond * kSecond;
    const double before =
        static_cast<double>(completions_in(reader, first - 10 * kSecond, first)) / 10.0;
    uint64_t worst = UINT64_MAX;
    for (Tick t = first; t < reconfigs_.back() + 10 * kSecond && t < end_; t += kSecond) {
      worst = std::min(worst, completions_in(reader, t, t + kSecond));
    }
    return 100.0 * (1.0 - ratio(static_cast<double>(worst), before));
  }

  void gate(const std::string& name, bool pass, const std::string& detail) {
    gates_ += gates_.empty() ? "" : ", ";
    gates_ += JsonObject().str("name", name).boolean("pass", pass).str("detail", detail).done();
  }

  /// Reads every metric of the finished run, checks the generic gates,
  /// exports (traced runs) and prints the record.
  void finish(const std::vector<const elastic::Replica*>& replicas);

 private:
  void mark_warm(Clock::time_point at) {
    warm_wall_ = at;
    warm_events_ = sim_->events_processed();
    warm_stats_ = sim_->engine_stats();
  }

  double window_vs() const { return to_seconds(end_ - kWarmup); }
  std::string digest(const std::vector<const elastic::Replica*>& replicas) const;
  void measure_virtual(Reader& reader, JsonObject& m);
  void measure_host(JsonObject& m);
  double export_observability();
  void write_host_spans() const;

  Options options_;
  Clock::time_point t0_;
  Clock::time_point warm_wall_{};
  Clock::time_point end_wall_{};
  sim::Simulation* sim_ = nullptr;
  Tick end_ = 0;
  uint64_t warm_events_ = 0;
  sim::EngineStats warm_stats_{};
  std::vector<double> slice_wall_;
  std::vector<std::pair<double, double>> rss_samples_;  // (virtual s, KB)
  std::vector<Tick> reconfigs_;
  std::vector<std::pair<Tick, Tick>> disruptions_;
  double outage_ms_ = 0.0;
  std::string gates_;
  struct HostSpan {
    std::string name;
    Clock::time_point start, end;
  };
  std::vector<HostSpan> spans_;
};

std::string Run::digest(const std::vector<const elastic::Replica*>& replicas) const {
  auto observation = [](std::string_view key) {
    for (const char* p : kObservationPrefixes) {
      if (key.substr(0, std::strlen(p)) == p) return true;
    }
    return false;
  };
  const obs::MetricsRegistry& metrics = sim_->metrics();
  uint64_t h = 1469598103934665603ULL;
  char buf[160];
  for (const auto& [key, c] : metrics.counters()) {
    if (observation(key)) continue;
    std::snprintf(buf, sizeof(buf), "=%" PRIu64 ";", c->total());
    h = fnv1a(fnv1a(h, key), buf);
  }
  for (const auto& [key, g] : metrics.gauges()) {
    if (observation(key)) continue;
    std::snprintf(buf, sizeof(buf), "=%.17g/%.17g;", g->value(), g->max());
    h = fnv1a(fnv1a(h, key), buf);
  }
  for (const auto& [key, t] : metrics.timers()) {
    if (observation(key)) continue;
    const Histogram& hist = t->total();
    std::snprintf(buf, sizeof(buf), "=%" PRIu64 "/%.17g/%" PRId64 "/%" PRId64 "/%" PRId64 ";",
                  hist.count(), hist.mean(), hist.p50(), hist.p99(), hist.max());
    h = fnv1a(fnv1a(h, key), buf);
  }
  for (const elastic::Replica* r : replicas) {
    std::snprintf(buf, sizeof(buf), "=%" PRIu64 ";", r->delivered());
    h = fnv1a(fnv1a(h, r->name()), buf);
  }
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

void Run::measure_virtual(Reader& reader, JsonObject& m) {
  const Tick w0 = kWarmup, w1 = end_;
  const double vs = window_vs();

  const uint64_t ops = completions_in(reader, w0, w1);
  const double dops = static_cast<double>(ops);
  const uint64_t retries = reader.count("client.retries", w0, w1);
  const Histogram lat = reader.timers("client.latency", true, true, w0, w1);
  m.num("ops", dops)
      .num("ops_per_vs", dops / vs)
      .num("lat_p50_ms", quantile_ms(lat, 0.50))
      .num("lat_p99_ms", quantile_ms(lat, 0.99))
      .num("client.lat_samples", static_cast<double>(lat.count()))
      .num("client.retries", static_cast<double>(retries))
      .num("failed_ops_pct", 100.0 * ratio(static_cast<double>(retries),
                                            dops + static_cast<double>(retries)));
  m.num("dip_pct", dip_pct()).num("outage_ms", outage_ms_);

  const uint64_t events = sim_->events_processed() - warm_events_;
  m.num("events_per_op", ratio(static_cast<double>(events), dops));
  auto per_op = [&](const char* field, std::string_view name, bool required = true) {
    m.num(field, ratio(static_cast<double>(reader.count(name, w0, w1, required)), dops));
  };
  auto count = [&](const char* field, std::string_view name, bool required = true) {
    m.num(field, static_cast<double>(reader.count(name, w0, w1, required)));
  };
  per_op("net.msgs_per_op", "net.messages_sent");
  per_op("net.bytes_per_op", "net.bytes_sent");
  per_op("net.egress_bytes_per_op", "net.egress_bytes");
  count("net.dropped", "net.messages_dropped", false);

  const bool durable = !reader.counters("wal.appends", false).empty();
  per_op("wal.appends_per_op", "wal.appends", durable);
  m.num("storage.appends_per_fsync",
        ratio(static_cast<double>(reader.count("wal.appends", w0, w1, durable)),
              static_cast<double>(reader.count("storage.fsync", w0, w1, durable))));
  m.num("storage.fsync_wait_p99_ms",
        quantile_ms(reader.timers("storage.fsync_wait", durable, true, w0, w1), 0.99));
  m.num("acceptor.replays", static_cast<double>(reader.total("acceptor.replays", false)));

  m.num("coord.commands_per_vs",
        static_cast<double>(reader.count("coord.commands", w0, w1)) / vs);
  m.num("coord.skips_per_vs", static_cast<double>(reader.count("coord.skips", w0, w1)) / vs);
  per_op("acceptor.decisions_per_op", "acceptor.decisions");
  count("coord.retries", "coord.retries");
  count("acceptor.recoveries", "acceptor.recoveries");
  count("learner.gap_repairs", "learner.gap_repairs");

  // Busiest node of each role, as a share of the measured window.
  double coord = 0, acceptor = 0, replica = 0;
  for (const auto& [key, c] : reader.keyed("cpu.busy")) {
    const double pct =
        100.0 * static_cast<double>(c->series().total_in(w0, w1)) / static_cast<double>(w1 - w0);
    const std::string node = label_value(key, "node");
    auto is = [&node](std::string_view prefix) { return node.rfind(prefix, 0) == 0; };
    if (is("coord")) {
      coord = std::max(coord, pct);
    } else if (is("acc")) {
      acceptor = std::max(acceptor, pct);
    } else if (is("replica") || (is("kv") && !is("kvclient"))) {
      replica = std::max(replica, pct);
    }
  }
  m.num("cpu.coord_max_pct", coord)
      .num("cpu.acceptor_max_pct", acceptor)
      .num("cpu.replica_max_pct", replica);

  per_op("merge.scan_slots_per_op", "merge.scan_slots");
  count("merge.discarded", "merge.discarded");
  m.num("merge.subscribe_ms",
        to_millis(static_cast<Tick>(reader.timers("merge.subscribe_latency", false).mean())));

  const bool kv = !reader.counters("kv.executed", false).empty();
  per_op("kv.executed_per_op", "kv.executed", kv);
  per_op("kv.signals_per_op", "kv.signals", kv);
  count("kv.discarded", "kv.discarded", kv);
  m.num("kv.snapshot_mb", static_cast<double>(reader.total("kv.snapshot_bytes", kv)) / 1e6);
  m.num("registry.notifications",
        static_cast<double>(reader.total("registry.notifications", kv)));

  if (options_.traced()) {
    for (const auto& [stage, timer] : kStages) {
      const Histogram h =
          reader.aggregate_timer(timer, std::string_view(timer) != "span.durable_wait" || durable);
      m.num(std::string("stage.") + stage + ".p50_ms", quantile_ms(h, 0.50));
      m.num(std::string("stage.") + stage + ".p99_ms", quantile_ms(h, 0.99));
    }
    m.num("monitor_violations", static_cast<double>(sim_->monitors().violation_count()));
  }
}

void Run::measure_host(JsonObject& m) {
  const double vs = window_vs();
  const double wall = seconds_between(warm_wall_, end_wall_);
  const uint64_t events = sim_->events_processed() - warm_events_;
  const sim::EngineStats& s = sim_->engine_stats();
  const double windows = static_cast<double>(s.windows - warm_stats_.windows);
  const double exchanges = static_cast<double>(s.exchanges - warm_stats_.exchanges);
  const double skipped =
      static_cast<double>(s.exchanges_skipped - warm_stats_.exchanges_skipped);
  m.num("setup_s", seconds_between(t0_, warm_wall_))
      .num("host_ms_per_vs", 1e3 * wall / vs)
      .num("ns_per_event", 1e9 * ratio(wall, static_cast<double>(events)))
      .num("windows_per_vs", windows / vs)
      .num("window_us", 1e6 * ratio(vs, windows))
      .num("exchange_skip_pct", 100.0 * ratio(skipped, exchanges + skipped));

  // Wall per virtual second inside vs. outside the disruption windows.
  double steady = 0, disrupt = 0;
  int steady_n = 0, disrupt_n = 0;
  for (Tick t = kWarmup; t < end_; t += kSecond) {
    const double w = slice_wall_[static_cast<size_t>(t / kSecond)];
    const bool inside = std::any_of(disruptions_.begin(), disruptions_.end(),
                                    [t](const auto& d) { return t >= d.first && t < d.second; });
    (inside ? disrupt : steady) += w;
    ++(inside ? disrupt_n : steady_n);
  }
  m.num("phase_steady_ms_per_vs", 1e3 * ratio(steady, steady_n))
      .num("phase_disrupt_ms_per_vs", 1e3 * ratio(disrupt, disrupt_n));

  // Least-squares slope of peak RSS over the 10-virtual-s slice marks.
  double slope = 0.0;
  if (rss_samples_.size() >= 2) {
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto& [x, y] : rss_samples_) {
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double n = static_cast<double>(rss_samples_.size());
    slope = ratio(n * sxy - sx * sy, n * sxx - sx * sx);
  }
  m.num("rss_slope_kb_per_vs", slope);
}

/// Host time of the exporters: the registry snapshot always, plus the
/// Chrome trace in a traced run.
double Run::export_observability() {
  Span span(this, "export");
  const auto w0 = Clock::now();
  sim_->metrics().to_json();
  if (options_.traced()) {
    sim_->spans().export_chrome_trace(options_.trace_out, &sim_->trace());
  }
  return 1e3 * seconds_between(w0, Clock::now());
}

/// The driver's own spans as a Chrome trace (host clock), next to the
/// simulation's trace: `<trace-out>.host.json`.
void Run::write_host_spans() const {
  std::ofstream out(options_.trace_out + ".host.json");
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const HostSpan& s = spans_[i];
    out << (i == 0 ? "" : ",\n")
        << JsonObject()
               .str("name", s.name)
               .str("ph", "X")
               .num("ts", 1e6 * seconds_between(t0_, s.start))
               .num("dur", 1e6 * seconds_between(s.start, s.end))
               .num("pid", 1)
               .num("tid", 1)
               .done();
  }
  out << "]}\n";
}

void Run::finish(const std::vector<const elastic::Replica*>& replicas) {
  Reader reader(sim_->metrics());
  JsonObject m;
  measure_virtual(reader, m);
  measure_host(m);
  m.num("export_ms", export_observability());
  m.num("peak_rss_mb", peak_rss_kb() / 1024.0);

  std::string missing;
  for (const std::string& name : reader.missing()) {
    missing += (missing.empty() ? "" : ", ") + name;
  }
  gate("registry-names", missing.empty(),
       missing.empty() ? "every name read was published" : "never published: " + missing);
  if (options_.traced()) {
    const uint64_t v = sim_->monitors().violation_count();
    gate("monitors-clean", v == 0, std::to_string(v) + " monitor violations");
    write_host_spans();
  }

  std::printf("%s\n", JsonObject()
                          .str("workload", options_.workload)
                          .num("seed", static_cast<double>(options_.seed))
                          .num("threads", static_cast<double>(options_.threads))
                          .boolean("traced", options_.traced())
                          .num("virtual_s", to_seconds(end_))
                          .num("events", static_cast<double>(sim_->events_processed()))
                          .str("digest", digest(replicas))
                          .raw("gates", "[" + gates_ + "]")
                          .raw("metrics", m.done())
                          .done()
                          .c_str());
}

std::string rate_pair(double before, double after) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.0f -> %.0f ops/s", before, after);
  return buf;
}

// ---------------------------------------------------------------------------
// Calibration: link delay, NIC bandwidth, Paxos parameters, apply cost and
// the geo topology. These are the values of the figure benches'
// bench/bench_common.h, copied here so that everything that shapes a
// workload is part of the benchmark: retuning the figures cannot move the
// benchmark's results, and a change that edits these edits the benchmark.
// ---------------------------------------------------------------------------

/// VM NIC egress, bits/sec.
constexpr double kNodeBandwidthBps = 2.2e9;

/// LAN links of 200 us +- 50 us jitter, 100 ms skip interval and 1 ms
/// batching, as on every figure bench.
ClusterOptions lan_options() {
  ClusterOptions options;
  options.node_bandwidth_bps = kNodeBandwidthBps;
  options.link = {200 * kMicrosecond, 50 * kMicrosecond};
  options.params.delta_t = 100 * kMillisecond;
  options.params.batch_max_delay = 1 * kMillisecond;
  return options;
}

/// 32 KB broadcast values: lambda = 4000 instances/s as in the paper.
ClusterOptions broadcast_options() {
  ClusterOptions options = lan_options();
  options.params.lambda = 4000.0;
  options.params.batch_max_bytes = 64 * 1024;
  return options;
}

/// Replica apply cost for 32 KB values: 50 us + 9 us/KiB, ~338 us/value.
void tune_broadcast_replica(elastic::Replica::Config& config) {
  config.apply_cpu_per_cmd = 50 * kMicrosecond;
  config.apply_cpu_per_kib = 9 * kMicrosecond;
}

/// 1 KB KV commands: lambda counts commands here, hence 10x the paper's
/// instance rate; ~72 us/op apply saturates a replica near 14k ops/s.
ClusterOptions kv_options() {
  ClusterOptions options = lan_options();
  options.params.lambda = 40000.0;
  options.params.batch_max_bytes = 32 * 1024;
  options.apply_cpu_per_cmd = 70 * kMicrosecond;
  options.apply_cpu_per_kib = 2 * kMicrosecond;
  return options;
}

/// Four WAN regions: 100 us links inside a region, 32-90 ms one way
/// between regions (roughly us-east / us-west / eu / ap).
sim::Topology geo_topology() {
  sim::Topology topo;
  const auto us_east = topo.add_region("us-east");
  const auto us_west = topo.add_region("us-west");
  const auto eu = topo.add_region("eu");
  const auto ap = topo.add_region("ap");
  for (auto r : {us_east, us_west, eu, ap}) {
    topo.set_intra_region_link(r, {100 * kMicrosecond, 20 * kMicrosecond});
  }
  topo.set_region_link_symmetric(us_east, us_west, {32 * kMillisecond, kMillisecond});
  topo.set_region_link_symmetric(us_east, eu, {38 * kMillisecond, kMillisecond});
  topo.set_region_link_symmetric(us_east, ap, {90 * kMillisecond, 2 * kMillisecond});
  topo.set_region_link_symmetric(us_west, eu, {70 * kMillisecond, 2 * kMillisecond});
  topo.set_region_link_symmetric(us_west, ap, {51 * kMillisecond, kMillisecond});
  topo.set_region_link_symmetric(eu, ap, {80 * kMillisecond, 2 * kMillisecond});
  return topo;
}

/// Per region, pinned to its region's shard: one stream, one replica and
/// one 8-thread 1 KB load client. The last region's replica also merges
/// the first region's stream, so steady state carries cross-WAN deliveries.
std::vector<elastic::Replica*> build_geo_cluster(Cluster& cluster) {
  const size_t regions = cluster.options().topology.region_count();
  std::vector<StreamId> streams;
  std::vector<elastic::Replica*> replicas;
  for (sim::Topology::RegionId r = 0; r < regions; ++r) {
    cluster.set_build_region(r);
    streams.push_back(cluster.add_stream());
  }
  for (sim::Topology::RegionId r = 0; r < regions; ++r) {
    cluster.set_build_region(r);
    std::vector<StreamId> subs{streams[r]};
    if (r + 1 == regions && regions > 1) subs.push_back(streams[0]);
    replicas.push_back(cluster.add_replica(static_cast<paxos::GroupId>(r + 1), subs));
    LoadClient::Config cfg;
    cfg.threads = 8;
    cfg.payload_bytes = 1024;
    const StreamId s = streams[r];
    cfg.route = [s] { return s; };
    cluster.spawn<LoadClient>("geo_client" + std::to_string(r + 1), &cluster.directory(), cfg)
        ->start();
  }
  return replicas;
}

// ---------------------------------------------------------------------------
// Workloads. Each builds its cluster, drives the timeline through
// Run::advance / Run::op, checks its own gates and calls Run::finish.
// ---------------------------------------------------------------------------

/// Fig. 4 timeline: 1 partition x 2 replicas under 100 closed-loop
/// threads; replica 2 splits off onto a new stream and the map flips.
void kv_split(Run& run) {
  constexpr Tick kSplit = 20 * kSecond, kFlip = 25 * kSecond, kEnd = 45 * kSecond;
  Run::Span build(&run, "build");
  KvCluster kvc(run.cluster_options(kv_options()));
  Cluster& cluster = kvc.cluster();
  run.attach(cluster.sim(), kEnd);
  const uint32_t p1 = kvc.add_partition(2);
  kvc.publish();
  kv::KvReplica* r1 = kvc.replicas()[0];
  kv::KvReplica* r2 = kvc.replicas()[1];
  kv::KvClient::Config ccfg;
  ccfg.threads = 100;
  ccfg.key_space = 100000;
  ccfg.value_bytes = 1024;
  ccfg.retry_timeout = 1 * kSecond;
  ccfg.think_time = 7 * kMillisecond;
  ccfg.seed = run.options().seed;
  kvc.add_client(ccfg)->start();
  build.end();

  run.advance(kSplit);
  run.op("begin_split", [&] { kvc.begin_split(p1, r2, /*with_prepare=*/true); });
  run.advance(kFlip);
  run.op("complete_split", [&] { kvc.complete_split(p1, r2); });
  run.reconfiguration_at(kSplit);
  run.reconfiguration_at(kFlip);
  run.disruption(kSplit, kFlip + 10 * kSecond);
  bool purged = false;
  while (cluster.now() < kEnd) {
    run.advance(cluster.now() + 500 * kMillisecond);
    if (!purged && r2->merger().subscriptions().size() == 1) {
      run.op("purge_unowned", [&] { r2->purge_unowned(); });
      purged = true;
    }
  }

  const Tick after = kFlip + 10 * kSecond;
  const double b1 = r1->executed_series().average_rate(Run::kWarmup, kSplit);
  const double a1 = r1->executed_series().average_rate(after, kEnd);
  const double b2 = r2->executed_series().average_rate(Run::kWarmup, kSplit);
  const double a2 = r2->executed_series().average_rate(after, kEnd);
  auto halved = [](double before, double now) {
    return now < before * 0.65 && now > before * 0.3;
  };
  run.gate("throughput-halves", halved(b1, a1) && halved(b2, a2),
           "replica1 " + rate_pair(b1, a1) + ", replica2 " + rate_pair(b2, a2));
  run.finish({r1, r2});
}

/// 2 partitions x 2 replicas, a global getrange stream merged by every
/// replica, 64 threads near saturation: 60% get / 35% put / 5% getrange.
void kv_readmix(Run& run) {
  constexpr Tick kEnd = 40 * kSecond;
  Run::Span build(&run, "build");
  KvCluster kvc(run.cluster_options(kv_options()));
  Cluster& cluster = kvc.cluster();
  run.attach(cluster.sim(), kEnd);
  kvc.add_partition(2);
  kvc.add_partition(2);
  kvc.add_global_stream();
  kvc.wire_peers();
  kvc.publish();
  kv::KvClient::Config ccfg;
  ccfg.threads = 64;
  ccfg.key_space = 100000;
  ccfg.value_bytes = 1024;
  ccfg.get_ratio = 0.60;
  ccfg.getrange_ratio = 0.05;
  ccfg.range_span = 50;
  // With no think time the mix is chaotic: getranges blocking behind
  // cross-partition signals make throughput drift by ~3% from seed to
  // seed. 2 ms holds it at ~95% of that rate with a 0.1% spread.
  ccfg.think_time = 2 * kMillisecond;
  ccfg.seed = run.options().seed;
  kvc.add_client(ccfg)->start();
  build.end();

  run.advance(Run::kWarmup);
  const paxos::StreamId global = kvc.global_stream();
  size_t subscribed = 0;
  for (const kv::KvReplica* r : kvc.replicas()) subscribed += r->merger().subscribed_to(global);
  run.gate("global-subscribed-by-warmup", subscribed == kvc.replicas().size(),
           std::to_string(subscribed) + "/" + std::to_string(kvc.replicas().size()) +
               " replicas merge the global stream at t=10s");
  run.advance(kEnd);

  // Every replica executed getrange commands from the global stream.
  Reader reader(cluster.sim().metrics());
  size_t serving = 0;
  for (const kv::KvReplica* r : kvc.replicas()) {
    const uint64_t n = reader.count("replica.delivered", Run::kWarmup, kEnd, true,
                                    {{"node", r->name()}, {"stream", std::to_string(global)}});
    serving += n > 0;
  }
  const uint64_t signals = reader.count("kv.signals", Run::kWarmup, kEnd);
  run.gate("getrange-completes", serving == kvc.replicas().size() && signals > 0,
           std::to_string(serving) + " replicas executed getranges, " +
               std::to_string(signals) + " signals");
  std::vector<const elastic::Replica*> replicas(kvc.replicas().begin(), kvc.replicas().end());
  run.finish(replicas);
}

/// Fig. 5 timeline on write-ahead acceptors: swap the stream under 60
/// threads of 32 KB values, then power-fail the whole active ring.
void bcast_durable(Run& run) {
  constexpr Tick kPrepare = 40 * kSecond, kSubscribe = 45 * kSecond;
  constexpr Tick kFault = 60 * kSecond, kEnd = 100 * kSecond;
  Run::Span build(&run, "build");
  ClusterOptions options = run.cluster_options(broadcast_options());
  options.storage = paxos::StoragePolicy::kDurable;
  Cluster cluster(options);
  run.attach(cluster.sim(), kEnd);
  const StreamId s1 = cluster.add_stream();
  elastic::Replica::Config rcfg;
  rcfg.group = 1;
  rcfg.initial_streams = {s1};
  rcfg.params = options.params;
  tune_broadcast_replica(rcfg);
  elastic::Replica* r1 = cluster.add_replica(rcfg);
  elastic::Replica* r2 = cluster.add_replica(rcfg);
  StreamId active = s1;
  LoadClient::Config cfg;
  cfg.threads = 60;
  cfg.payload_bytes = 32 * 1024;
  cfg.think_time = 24 * kMillisecond;
  cfg.route = [&active] { return active; };
  cluster.spawn<LoadClient>("client", &cluster.directory(), cfg)->start();
  build.end();

  run.advance(kPrepare);
  StreamId s2 = paxos::kInvalidStream;
  run.op("prepare", [&] {
    s2 = cluster.add_stream();
    cluster.controller().prepare(1, s2, s1);
  });
  run.advance(kSubscribe);
  run.op("subscribe", [&] { cluster.controller().subscribe(1, s2, s1); });
  while (cluster.now() < kEnd &&
         !(r1->merger().subscribed_to(s2) && r2->merger().subscribed_to(s2))) {
    run.advance(cluster.now() + 50 * kMillisecond);
  }
  active = s2;
  run.advance(cluster.now() + options.params.delta_t);
  run.op("unsubscribe", [&] { cluster.controller().unsubscribe(1, s1, s2); });
  run.reconfiguration_at(kPrepare);
  run.reconfiguration_at(kSubscribe);
  run.disruption(kPrepare, kSubscribe + 10 * kSecond);

  run.advance(kFault);
  run.op("power_loss", [&] {
    for (auto* a : cluster.acceptors(s2)) a->crash();
  });
  run.advance(kFault + 250 * kMillisecond);
  // Replica 1's first delivery after the restart, to the tick: the
  // listener runs on the replica's own shard, at its delivery time.
  Tick recovered = kEnd;
  r1->set_delivery_listener([&](net::NodeId, const paxos::Command&, StreamId) {
    recovered = std::min(recovered, cluster.sim().now());
  });
  run.op("restart", [&] {
    for (auto* a : cluster.acceptors(s2)) a->restart();
  });
  run.disruption(kFault, kFault + 10 * kSecond);
  run.advance(kEnd);
  run.set_outage(recovered - kFault);

  Reader reader(cluster.sim().metrics());
  const uint64_t replays = reader.total("acceptor.replays");
  run.gate("journal-replays", replays == cluster.acceptors(s2).size(),
           std::to_string(replays) + " replays, ring of " +
               std::to_string(cluster.acceptors(s2).size()));
  const double pre = r1->delivery_series().average_rate(kFault - 10 * kSecond, kFault);
  const double post = r1->delivery_series().average_rate(kFault + 5 * kSecond, kEnd);
  run.gate("rate-recovers", post >= 0.8 * pre, "replica1 " + rate_pair(pre, post));
  const double dip = run.dip_pct();
  run.gate("no-reconfiguration-dip", dip < 20.0, std::to_string(dip) + "% dip");
  run.finish({r1, r2});
}

/// Four WAN regions, each with a stream, a replica and an 8-thread
/// client; the us-west group then subscribes to the eu stream.
void geo_wan(Run& run) {
  constexpr Tick kSubscribe = 150 * kSecond, kEnd = 300 * kSecond;
  Run::Span build(&run, "build");
  ClusterOptions options = run.cluster_options(ClusterOptions{});
  options.topology = geo_topology();
  Cluster cluster(options);
  run.attach(cluster.sim(), kEnd);
  const std::vector<elastic::Replica*> replicas = build_geo_cluster(cluster);
  build.end();

  // Stream ids follow region order (build_geo_cluster adds one per region).
  constexpr paxos::GroupId kUsWest = 2;
  constexpr StreamId kUsWestStream = 2, kEuStream = 3;
  run.advance(kSubscribe);
  run.op("subscribe", [&] { cluster.controller().subscribe(kUsWest, kEuStream, kUsWestStream); });
  run.reconfiguration_at(kSubscribe);
  run.disruption(kSubscribe, kSubscribe + 10 * kSecond);
  run.advance(kEnd);

  const elastic::Replica* west = replicas[kUsWest - 1];
  Reader reader(cluster.sim().metrics());
  const uint64_t from_eu =
      reader.count("replica.delivered", kSubscribe, kEnd, false,
                   {{"node", west->name()}, {"stream", std::to_string(kEuStream)}});
  run.gate("cross-wan-subscribe", west->merger().subscribed_to(kEuStream) && from_eu > 0,
           std::to_string(from_eu) + " eu-stream deliveries at " + west->name());
  run.finish({replicas.begin(), replicas.end()});
}

using WorkloadFn = void (*)(Run&);
const std::map<std::string_view, WorkloadFn> kDrivers = {
    {"kv-split", kv_split},
    {"kv-readmix", kv_readmix},
    {"bcast-durable", bcast_durable},
    {"geo-wan", geo_wan},
};

void print_catalogue() {
  std::string workloads, metrics;
  for (const WorkloadInfo& w : kWorkloads) {
    workloads += (workloads.empty() ? "" : ", ") + JsonObject()
                                                       .str("name", w.name)
                                                       .str("why", w.why)
                                                       .num("client_threads", w.client_threads)
                                                       .done();
  }
  for (const MetricInfo& m : kMetrics) {
    metrics += (metrics.empty() ? "" : ",\n  ") + JsonObject()
                                                      .str("name", m.name)
                                                      .str("unit", m.unit)
                                                      .str("better", m.better)
                                                      .boolean("end_to_end", m.end_to_end)
                                                      .str("source", m.source)
                                                      .str("field", m.field)
                                                      .done();
  }
  std::printf("{\"workloads\": [%s],\n \"metrics\": [\n  %s]}\n", workloads.c_str(),
              metrics.c_str());
}

bool flag_value(const char* arg, const char* flag, std::string* out) {
  const size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0) return false;
  *out = arg + n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  epx::log::set_level(epx::log::Level::kWarn);
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--list") == 0) {
      print_catalogue();
      return 0;
    } else if (flag_value(argv[i], "--workload=", &v)) {
      options.workload = v;
    } else if (flag_value(argv[i], "--seed=", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag_value(argv[i], "--threads=", &v)) {
      options.threads = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag_value(argv[i], "--trace-out=", &v)) {
      options.trace_out = v;
    } else {
      std::fprintf(stderr, "epx_bench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const auto driver = kDrivers.find(options.workload);
  if (driver == kDrivers.end() || (options.threads != 1 && options.threads != 4) ||
      (options.traced() && options.threads != 1)) {
    std::fprintf(stderr,
                 "usage: epx_bench --workload=<kv-split|kv-readmix|bcast-durable|geo-wan> "
                 "--seed=<n> --threads=<1|4> [--trace-out=<path>]  |  --list\n"
                 "(traced runs are serial)\n");
    return 2;
  }
  Run run(options);
  driver->second(run);
  return 0;
}
