#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace epx::obs {

std::string metric_key(std::string_view name, Labels labels) {
  if (labels.empty()) return std::string(name);
  std::sort(labels.begin(), labels.end());
  std::string key(name);
  key += '{';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += labels[i].first;
    key += '=';
    key += labels[i].second;
  }
  key += '}';
  return key;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  std::string key = metric_key(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(std::move(key), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  std::string key = metric_key(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::move(key), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Timer& MetricsRegistry::timer(std::string_view name, Labels labels) {
  std::string key = metric_key(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(key);
  if (it == timers_.end()) {
    it = timers_.emplace(std::move(key), std::make_unique<Timer>()).first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view key) const {
  auto it = counters_.find(key);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view key) const {
  auto it = gauges_.find(key);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Timer* MetricsRegistry::find_timer(std::string_view key) const {
  auto it = timers_.find(key);
  return it == timers_.end() ? nullptr : it->second.get();
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json(bool include_series) const {
  std::string out;
  out.reserve(4096);
  out += "{\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& [key, c] : counters_) {
    sep();
    out += "  ";
    append_json_string(out, key);
    out += ": {\"type\": \"counter\", \"total\": ";
    out += std::to_string(c->total());
    if (include_series && c->series().size() > 0) {
      // Only retained windows; runs past the ring's reach say where the
      // array starts.
      const size_t first_window = c->series().first_retained();
      if (first_window > 0) {
        out += ", \"first_window\": ";
        out += std::to_string(first_window);
      }
      out += ", \"rate_per_sec\": [";
      for (size_t i = first_window; i < c->series().size(); ++i) {
        if (i > first_window) out += ", ";
        append_double(out, c->series().rate_at(i));
      }
      out += ']';
    }
    out += '}';
  }
  for (const auto& [key, g] : gauges_) {
    sep();
    out += "  ";
    append_json_string(out, key);
    out += ": {\"type\": \"gauge\", \"value\": ";
    append_double(out, g->value());
    out += ", \"max\": ";
    append_double(out, g->max());
    out += '}';
  }
  for (const auto& [key, t] : timers_) {
    sep();
    out += "  ";
    append_json_string(out, key);
    out += ": {\"type\": \"timer\", \"count\": ";
    out += std::to_string(t->total().count());
    out += ", \"mean_ms\": ";
    append_double(out, to_millis(static_cast<Tick>(t->total().mean())));
    out += ", \"p50_ms\": ";
    append_double(out, to_millis(t->total().p50()));
    out += ", \"p95_ms\": ";
    append_double(out, to_millis(t->total().p95()));
    out += ", \"p99_ms\": ";
    append_double(out, to_millis(t->total().p99()));
    out += '}';
  }
  out += "\n}\n";
  return out;
}

}  // namespace epx::obs
