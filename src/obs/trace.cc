#include "obs/trace.h"

#include <cstdio>

namespace epx::obs {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSkipRun: return "skip-run";
    case TraceKind::kSubscribeBegin: return "subscribe-begin";
    case TraceKind::kMergePoint: return "merge-point";
    case TraceKind::kSubscribeComplete: return "subscribe-complete";
    case TraceKind::kUnsubscribe: return "unsubscribe";
    case TraceKind::kPrepare: return "prepare";
    case TraceKind::kTakeoverBegin: return "takeover-begin";
    case TraceKind::kTakeoverComplete: return "takeover-complete";
    case TraceKind::kTrim: return "trim";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRestart: return "restart";
    case TraceKind::kLog: return "log";
  }
  return "?";
}

std::string TraceEvent::to_string() const {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf), "[%9.6f] %-18s node=%u stream=%u a=%llu b=%llu",
                        to_seconds(time), trace_kind_name(kind), node, stream,
                        static_cast<unsigned long long>(a),
                        static_cast<unsigned long long>(b));
  if (kind == TraceKind::kSkipRun) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), " runs=%u last=%.6f",
                       runs, to_seconds(last_time));
  }
  std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), " %s", detail);
  return buf;
}

std::vector<TraceEvent> Trace::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceEvent> Trace::events(TraceKind kind) const {
  std::vector<TraceEvent> out;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& ev = ring_[(head_ + i) % ring_.size()];
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

}  // namespace epx::obs
