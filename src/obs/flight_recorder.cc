#include "obs/flight_recorder.h"

#include <cstdio>

#include "util/json.h"

namespace epx::obs {

namespace {

/// Trailing trace-ring events kept in a dump.
constexpr size_t kMaxTraceEvents = 512;

}  // namespace

std::string FlightRecorder::dump(const std::string& reason, Tick now) {
  ++dumps_;
  std::string out = "{\n\"reason\": \"";
  append_json_escaped(out, reason);
  appendf(out, "\",\n\"sim_time_ns\": %lld,\n\"dump_seq\": %llu,\n",
          static_cast<long long>(now), static_cast<unsigned long long>(dumps_));

  out += "\"trace\": [";
  if (trace_ != nullptr) {
    const auto events = trace_->events();
    const size_t first =
        events.size() > kMaxTraceEvents ? events.size() - kMaxTraceEvents : 0;
    for (size_t i = first; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      appendf(out,
              "%s\n{\"time\": %lld, \"kind\": \"%s\", \"node\": %u, "
              "\"stream\": %u, \"a\": %llu, \"b\": %llu, ",
              i == first ? "" : ",", static_cast<long long>(ev.time),
              trace_kind_name(ev.kind), ev.node, ev.stream,
              static_cast<unsigned long long>(ev.a),
              static_cast<unsigned long long>(ev.b));
      if (ev.kind == TraceKind::kSkipRun) {
        appendf(out, "\"runs\": %u, \"last_time\": %lld, ", ev.runs,
                static_cast<long long>(ev.last_time));
      }
      out += "\"detail\": \"";
      append_json_escaped(out, ev.detail);
      out += "\"}";
    }
  }
  out += "\n],\n";

  out += "\"queue_depths\": {";
  if (metrics_ != nullptr) {
    bool first = true;
    for (const auto& [key, gauge] : metrics_->gauges()) {
      if (key.rfind("inbox.depth", 0) != 0) continue;
      appendf(out, "%s\n\"", first ? "" : ",");
      append_json_escaped(out, key);
      appendf(out, "\": {\"value\": %.0f, \"max\": %.0f}", gauge->value(), gauge->max());
      first = false;
    }
  }
  out += "\n},\n";

  // Windowed history: what the point-in-time metrics snapshot below
  // cannot show — how each signal moved through the last N scrape
  // windows leading up to the dump.
  out += "\"telemetry\": {\"series\": [";
  if (telemetry_ != nullptr) {
    bool first_series = true;
    for (const auto& [key, by_node] : telemetry_->all()) {
      for (const auto& [node, s] : by_node) {
        appendf(out, "%s\n{\"key\": \"", first_series ? "" : ",");
        first_series = false;
        append_json_escaped(out, key);
        appendf(out, "\", \"node\": %u, \"kind\": \"%s\", \"points\": [", node,
                point_kind_name(s.kind));
        const size_t start = s.points.size() > max_telemetry_windows_
                                 ? s.points.size() - max_telemetry_windows_
                                 : 0;
        for (size_t i = start; i < s.points.size(); ++i) {
          const TsPoint& p = s.points[i];
          appendf(out, "%s[%lld,%.12g,%.12g,%.12g,%.12g]", i == start ? "" : ",",
                  static_cast<long long>(p.t), p.v0, p.v1, p.v2, p.v3);
        }
        out += "]}";
      }
    }
    if (!first_series) out += "\n";
  }
  out += "]},\n";

  out += "\"metrics\": ";
  out += metrics_ != nullptr ? metrics_->to_json(false) : "{}";
  out += "\n}\n";

  if (!path_prefix_.empty()) {
    last_path_ = path_prefix_ + std::to_string(dumps_) + ".json";
    if (std::FILE* f = std::fopen(last_path_.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
    } else {
      last_path_.clear();
    }
  }
  return out;
}

}  // namespace epx::obs
