#include "obs/telemetry.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <tuple>

namespace epx::obs {

namespace {

double slot(const TsPoint& p, int field) {
  switch (field) {
    case 0: return p.v0;
    case 1: return p.v1;
    case 2: return p.v2;
    default: return p.v3;
  }
}

double slot(const TelemetryPoint& p, int field) {
  switch (field) {
    case 0: return p.v0;
    case 1: return p.v1;
    case 2: return p.v2;
    default: return p.v3;
  }
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[320];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<size_t>(n) < sizeof(buf) ? static_cast<size_t>(n) : sizeof(buf) - 1);
}

/// Shortest-exact double rendering: %.12g keeps every value the sim can
/// produce (counts, ns, bucket bounds) stable; values are always finite.
void append_double(std::string& out, double v) { appendf(out, "%.12g", v); }

bool key_matches(std::string_view key, std::string_view metric) {
  if (key == metric) return true;
  return key.size() > metric.size() && key.compare(0, metric.size(), metric) == 0 &&
         key[metric.size()] == '{';
}

}  // namespace

const char* point_kind_name(PointKind kind) {
  switch (kind) {
    case PointKind::kCounter: return "counter";
    case PointKind::kGauge: return "gauge";
    case PointKind::kTimer: return "timer";
  }
  return "unknown";
}

// --- ScrapeSet -------------------------------------------------------------

void ScrapeSet::watch_counter(std::string key, const Counter* counter) {
  for (const CounterWatch& w : counters_) {
    if (*w.key == key) return;
  }
  counters_.push_back({intern_key(std::move(key)), counter, counter->total()});
}

void ScrapeSet::watch_gauge(std::string key, const Gauge* gauge) {
  for (const GaugeWatch& w : gauges_) {
    if (*w.key == key) return;
  }
  gauges_.push_back({intern_key(std::move(key)), gauge});
}

void ScrapeSet::watch_timer(std::string key, const Timer* timer) {
  for (const TimerWatch& w : timers_) {
    if (*w.key == key) return;
  }
  timers_.push_back({intern_key(std::move(key)), timer, timer->total()});
}

void ScrapeSet::rebase() {
  for (CounterWatch& w : counters_) w.last_total = w.counter->total();
  for (TimerWatch& w : timers_) w.last = w.timer->total();
}

namespace {
// Parallel runs scrape on shard workers and destroy samples on the
// monitor's shard, so buffer capacity migrates between threads; the
// bound keeps any one thread's list small either way.
thread_local std::vector<std::vector<TelemetryPoint>> point_buffer_pool;
constexpr size_t kMaxPooledBuffers = 64;
}  // namespace

std::vector<TelemetryPoint> acquire_point_buffer() {
  if (point_buffer_pool.empty()) return {};
  std::vector<TelemetryPoint> buf = std::move(point_buffer_pool.back());
  point_buffer_pool.pop_back();
  return buf;
}

void release_point_buffer(std::vector<TelemetryPoint>&& buf) {
  if (buf.capacity() == 0 || point_buffer_pool.size() >= kMaxPooledBuffers) return;
  buf.clear();  // drop the key references now; capacity is what we keep
  point_buffer_pool.push_back(std::move(buf));
}

std::vector<TelemetryPoint> ScrapeSet::scrape() {
  std::vector<TelemetryPoint> out = acquire_point_buffer();
  out.reserve(size());
  for (CounterWatch& w : counters_) {
    const uint64_t total = w.counter->total();
    TelemetryPoint& p = out.emplace_back();
    p.key = w.key;
    p.kind = PointKind::kCounter;
    p.v0 = static_cast<double>(total - w.last_total);
    p.v1 = static_cast<double>(total);
    w.last_total = total;
  }
  for (const GaugeWatch& w : gauges_) {
    TelemetryPoint& p = out.emplace_back();
    p.key = w.key;
    p.kind = PointKind::kGauge;
    p.v0 = w.gauge->value();
    p.v1 = w.gauge->max();
  }
  for (TimerWatch& w : timers_) {
    static constexpr double kQs[3] = {0.50, 0.95, 0.99};
    Tick q[3];
    // One span-limited pass answers the window quantiles and advances
    // w.last in place — no delta materialisation, no snapshot copy.
    const uint64_t n = w.timer->total().advance_window(w.last, kQs, 3, q);
    TelemetryPoint& p = out.emplace_back();
    p.key = w.key;
    p.kind = PointKind::kTimer;
    p.v0 = static_cast<double>(n);
    p.v1 = static_cast<double>(q[0]);
    p.v2 = static_cast<double>(q[1]);
    p.v3 = static_cast<double>(q[2]);
  }
  return out;
}

// --- TimeSeriesStore -------------------------------------------------------

void TimeSeriesStore::ingest(uint32_t node, Tick window_end,
                             const std::vector<TelemetryPoint>& points) {
  ++samples_;
  for (const TelemetryPoint& p : points) {
    ++points_;
    // Hot path: an agent's points reuse the same interned key objects
    // every window, so after the first sample from a (key, node) pair
    // this is one pointer-hashed probe instead of two string-keyed tree
    // descents — the difference between telemetry fitting in the 2%
    // overhead gate and blowing past it.
    TsSeries*& s = index_[IndexKey{p.key.get(), node}];
    if (s == nullptr) {
      s = &series_[*p.key][node];
      // The ring never exceeds the retention cap (downsample fires the
      // moment it is reached) and compaction happens in place, so one
      // up-front reservation is the last allocation this series makes.
      s->points.reserve(retention_);
      pinned_.push_back(p.key);
    }
    s->kind = p.kind;
    s->points.push_back({window_end, p.v0, p.v1, p.v2, p.v3});
    if (s->points.size() >= retention_) downsample(*s);
  }
}

void TimeSeriesStore::downsample(TsSeries& s) const {
  // Pair-merge the oldest half: full resolution where it matters (the
  // recent past the controller reacts to), coarser further back.
  // Compaction runs in place — with the up-front reservation in
  // ingest() this keeps a long-lived store completely allocation-free,
  // so steady-state telemetry never churns the allocator under the
  // simulation's own hot-path allocations.
  const size_t half = s.points.size() / 2;
  size_t w = 0;
  size_t i = 0;
  for (; i + 1 < half; i += 2) {
    const TsPoint& a = s.points[i];
    const TsPoint& b = s.points[i + 1];
    TsPoint m;
    m.t = b.t;  // the merged window ends where the later sample ended
    switch (s.kind) {
      case PointKind::kCounter:
        m.v0 = a.v0 + b.v0;  // deltas add across the merged window
        m.v1 = b.v1;         // cumulative total: later wins
        break;
      case PointKind::kGauge:
        m.v0 = b.v0;                   // last value
        m.v1 = std::max(a.v1, b.v1);   // high-water mark
        break;
      case PointKind::kTimer:
        m.v0 = a.v0 + b.v0;  // window counts add
        // Quantiles of merged windows are not recoverable; keep the
        // conservative (larger) tail so SLO burn evidence never shrinks.
        m.v1 = std::max(a.v1, b.v1);
        m.v2 = std::max(a.v2, b.v2);
        m.v3 = std::max(a.v3, b.v3);
        break;
    }
    s.points[w++] = m;
  }
  if (i < half) s.points[w++] = s.points[i];  // odd half: oldest leftover
  std::copy(s.points.begin() + static_cast<ptrdiff_t>(half), s.points.end(),
            s.points.begin() + static_cast<ptrdiff_t>(w));
  s.points.resize(w + (s.points.size() - half));
  ++s.downsample_runs;
}

std::vector<uint32_t> TimeSeriesStore::nodes() const {
  std::vector<uint32_t> out;
  for (const auto& [key, by_node] : series_) {
    for (const auto& [node, s] : by_node) {
      if (std::find(out.begin(), out.end(), node) == out.end()) out.push_back(node);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> TimeSeriesStore::keys() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [key, by_node] : series_) out.push_back(key);
  return out;
}

const TsSeries* TimeSeriesStore::series(uint32_t node, std::string_view key) const {
  auto it = series_.find(key);
  if (it == series_.end()) return nullptr;
  auto nit = it->second.find(node);
  return nit == it->second.end() ? nullptr : &nit->second;
}

std::vector<TsPoint> TimeSeriesStore::range(std::string_view key, Tick t0, Tick t1) const {
  std::vector<std::pair<uint32_t, TsPoint>> tagged;
  auto it = series_.find(key);
  if (it == series_.end()) return {};
  for (const auto& [node, s] : it->second) {
    for (const TsPoint& p : s.points) {
      if (p.t >= t0 && p.t <= t1) tagged.emplace_back(node, p);
    }
  }
  std::stable_sort(tagged.begin(), tagged.end(), [](const auto& a, const auto& b) {
    return a.second.t != b.second.t ? a.second.t < b.second.t : a.first < b.first;
  });
  std::vector<TsPoint> out;
  out.reserve(tagged.size());
  for (auto& [node, p] : tagged) out.push_back(p);
  return out;
}

bool TimeSeriesStore::latest(std::string_view key, TsPoint* out) const {
  auto it = series_.find(key);
  if (it == series_.end()) return false;
  bool found = false;
  for (const auto& [node, s] : it->second) {
    if (s.points.empty()) continue;
    const TsPoint& p = s.points.back();
    if (!found || p.t >= out->t) *out = p;
    found = true;
  }
  return found;
}

double TimeSeriesStore::aggregate_latest(std::string_view prefix, int field) const {
  double sum = 0.0;
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    for (const auto& [node, s] : it->second) {
      if (!s.points.empty()) sum += slot(s.points.back(), field);
    }
  }
  return sum;
}

// --- SloEngine -------------------------------------------------------------

SloRule SloRule::gauge_max(std::string id, std::string metric, double limit,
                           uint32_t windows) {
  SloRule r;
  r.id = std::move(id);
  r.metric = std::move(metric);
  r.field = 1;
  r.op = Op::kGt;
  r.threshold = limit;
  r.windows = windows;
  return r;
}

SloRule SloRule::counter_rate(std::string id, std::string metric, double limit,
                              uint32_t windows) {
  SloRule r;
  r.id = std::move(id);
  r.metric = std::move(metric);
  r.field = 0;
  r.op = Op::kGt;
  r.threshold = limit;
  r.windows = windows;
  r.as_rate = true;
  return r;
}

void SloEngine::evaluate(uint32_t node, Tick window_start, Tick window_end,
                         const std::vector<TelemetryPoint>& points) {
  if (rules_.empty()) return;
  const double window_sec =
      window_end > window_start
          ? static_cast<double>(window_end - window_start) /
                static_cast<double>(kSecond)
          : 1.0;
  for (size_t ri = 0; ri < rules_.size(); ++ri) {
    const SloRule& rule = rules_[ri];
    for (const TelemetryPoint& p : points) {
      if (!key_matches(*p.key, rule.metric)) continue;
      double value = slot(p, rule.field);
      if (rule.as_rate) value /= window_sec;
      const bool breach = rule.op == SloRule::Op::kGt ? value > rule.threshold
                                                      : value < rule.threshold;
      Streak& streak = streaks_[{ri, node, *p.key}];
      if (!breach) {
        streak = Streak{};
        continue;
      }
      ++streak.breaching;
      if (streak.breaching < rule.windows || streak.fired) continue;
      streak.fired = true;
      SloViolation v;
      v.time = window_end;
      v.rule = rule.id;
      v.key = *p.key;
      v.node = node;
      v.value = value;
      if (violations_.size() < 4096) violations_.push_back(v);
      if (handler_) handler_(v);
    }
  }
}

// --- timeline export -------------------------------------------------------

std::string render_timeline_json(const TimeSeriesStore& store,
                                 std::vector<TraceEvent> annotations,
                                 const SloEngine* slo, Tick end, Tick interval) {
  // Total order over the annotation set: the set is deterministic across
  // engines, ring append order is not (see obs/trace.h).
  std::sort(annotations.begin(), annotations.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return std::make_tuple(x.time, static_cast<int>(x.kind), x.node, x.stream,
                                     x.a, x.b, std::string_view(x.detail)) <
                     std::make_tuple(y.time, static_cast<int>(y.kind), y.node, y.stream,
                                     y.a, y.b, std::string_view(y.detail));
            });

  std::string out = "{\n\"schema\": \"epx-timeline/v1\",\n";
  appendf(out, "\"interval_ns\": %lld,\n\"end_ns\": %lld,\n",
          static_cast<long long>(interval), static_cast<long long>(end));
  appendf(out, "\"samples\": %llu,\n\"points\": %llu,\n",
          static_cast<unsigned long long>(store.samples_ingested()),
          static_cast<unsigned long long>(store.points_ingested()));

  out += "\"events\": [";
  for (size_t i = 0; i < annotations.size(); ++i) {
    const TraceEvent& ev = annotations[i];
    appendf(out,
            "%s\n{\"time_ns\": %lld, \"kind\": \"%s\", \"node\": %u, "
            "\"stream\": %u, \"a\": %llu, \"b\": %llu, \"detail\": \"",
            i == 0 ? "" : ",", static_cast<long long>(ev.time),
            trace_kind_name(ev.kind), ev.node, ev.stream,
            static_cast<unsigned long long>(ev.a),
            static_cast<unsigned long long>(ev.b));
    append_escaped(out, ev.detail);
    out += "\"}";
  }
  out += annotations.empty() ? "],\n" : "\n],\n";

  out += "\"series\": [";
  bool first_series = true;
  for (const auto& [key, by_node] : store.all()) {
    for (const auto& [node, s] : by_node) {
      appendf(out, "%s\n{\"key\": \"", first_series ? "" : ",");
      first_series = false;
      append_escaped(out, key);
      appendf(out, "\", \"node\": %u, \"kind\": \"%s\", \"downsample_runs\": %llu, \"points\": [",
              node, point_kind_name(s.kind),
              static_cast<unsigned long long>(s.downsample_runs));
      for (size_t i = 0; i < s.points.size(); ++i) {
        const TsPoint& p = s.points[i];
        appendf(out, "%s[%lld,", i == 0 ? "" : ",", static_cast<long long>(p.t));
        append_double(out, p.v0);
        out += ",";
        append_double(out, p.v1);
        out += ",";
        append_double(out, p.v2);
        out += ",";
        append_double(out, p.v3);
        out += "]";
      }
      out += "]}";
    }
  }
  out += first_series ? "],\n" : "\n],\n";

  out += "\"slo\": {\"rules\": [";
  if (slo != nullptr) {
    for (size_t i = 0; i < slo->rules().size(); ++i) {
      const SloRule& r = slo->rules()[i];
      appendf(out, "%s\n{\"id\": \"", i == 0 ? "" : ",");
      append_escaped(out, r.id);
      out += "\", \"metric\": \"";
      append_escaped(out, r.metric);
      appendf(out, "\", \"field\": %d, \"op\": \"%s\", \"threshold\": ", r.field,
              r.op == SloRule::Op::kGt ? "gt" : "lt");
      append_double(out, r.threshold);
      appendf(out, ", \"windows\": %u, \"as_rate\": %s}", r.windows,
              r.as_rate ? "true" : "false");
    }
  }
  out += (slo == nullptr || slo->rules().empty()) ? "], " : "\n], ";
  out += "\"violations\": [";
  if (slo != nullptr) {
    for (size_t i = 0; i < slo->violations().size(); ++i) {
      const SloViolation& v = slo->violations()[i];
      appendf(out, "%s\n{\"time_ns\": %lld, \"rule\": \"", i == 0 ? "" : ",",
              static_cast<long long>(v.time));
      append_escaped(out, v.rule);
      out += "\", \"key\": \"";
      append_escaped(out, v.key);
      appendf(out, "\", \"node\": %u, \"value\": ", v.node);
      append_double(out, v.value);
      out += "}";
    }
  }
  out += (slo == nullptr || slo->violations().empty()) ? "]}\n" : "\n]}\n";
  out += "}\n";
  return out;
}

}  // namespace epx::obs
