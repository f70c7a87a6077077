#include "obs/span.h"

#include <cstdarg>
#include <cstdio>

namespace epx::obs {

namespace {

// Metric slots, indexing aggregate_ / per_stream_ in SpanCollector.
enum Metric : size_t {
  kProposeWait = 0,
  kQuorumWait,
  kDurableWait,
  kLearnWait,
  kMergeSkewWait,
  kApply,
  kEndToEnd,
  kClientRtt,
};

constexpr const char* kMetricNames[] = {
    "span.propose_wait", "span.quorum_wait", "span.durable_wait",
    "span.learn_wait",   "merge.skew_wait",  "span.apply",
    "span.e2e",          "span.client_rtt",
};
static_assert(sizeof(kMetricNames) / sizeof(kMetricNames[0]) == 8);

// printf-append onto a std::string.
void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<size_t>(n) < sizeof(buf) ? static_cast<size_t>(n) : sizeof(buf) - 1);
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

double to_us(Tick t) { return static_cast<double>(t) / 1000.0; }

// One Chrome "X" complete event on the node's track.
void append_complete(std::string& out, const char* name, Tick start, Tick dur,
                     uint32_t node, uint32_t stream, uint64_t trace, size_t& count) {
  appendf(out,
          ",\n{\"name\":\"%s\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{\"trace\":\"0x%llx\"}}",
          name, to_us(start), to_us(dur), node, stream,
          static_cast<unsigned long long>(trace));
  ++count;
}

}  // namespace

void SpanCollector::record_impl(uint64_t trace, SpanStage stage, Tick now,
                                uint32_t node, uint32_t stream, Tick duration) {
  auto it = live_.find(trace);
  if (it == live_.end()) {
    if (live_.size() >= max_live_ && !live_order_.empty()) {
      // Evict the oldest live span (almost surely long complete).
      const uint64_t victim = live_order_.front();
      live_order_.pop_front();
      auto vit = live_.find(victim);
      if (victim % sample_every_ == 0) {
        if (retired_.size() < max_retired_) {
          retired_.emplace_back(victim, std::move(vit->second));
        } else {
          ++dropped_spans_;  // sampled but lost for export
        }
      }
      live_.erase(vit);
    }
    it = live_.emplace(trace, SpanRecord{}).first;
    live_order_.push_back(trace);
  }
  SpanRecord& rec = it->second;
  if (stream == kSpanNoStream && !rec.events.empty()) {
    stream = rec.events.front().stream;
  }
  for (const SpanEvent& ev : rec.events) {
    if (ev.stage == stage && ev.node == node) return;  // first wins
  }
  rec.events.push_back(SpanEvent{now, duration, stage, node, stream});
  ++recorded_events_;
  publish(stage, rec, rec.events.back());
}

void SpanCollector::publish(SpanStage stage, const SpanRecord& rec, const SpanEvent& ev) {
  if (metrics_ == nullptr) return;
  // Latest prior event of `want` (the appended event itself excluded).
  const auto prior = [&rec](SpanStage want, uint32_t node, bool same_node) -> const SpanEvent* {
    for (size_t i = rec.events.size() - 1; i-- > 0;) {
      const SpanEvent& e = rec.events[i];
      if (e.stage == want && (!same_node || e.node == node)) return &e;
    }
    return nullptr;
  };
  const auto emit = [this, &ev](size_t metric, Tick value) {
    record_metric(metric, ev.stream, ev.time, value);
  };
  switch (stage) {
    case SpanStage::kClientSend:
      break;
    case SpanStage::kPropose:
      if (const SpanEvent* p = prior(SpanStage::kClientSend, 0, false)) {
        emit(kProposeWait, ev.time - p->time);
      }
      break;
    case SpanStage::kDecide:
      if (const SpanEvent* p = prior(SpanStage::kPropose, 0, false)) {
        emit(kQuorumWait, ev.time - p->time);
      }
      break;
    case SpanStage::kDurable:
      if (const SpanEvent* p = prior(SpanStage::kDecide, ev.node, true)) {
        emit(kDurableWait, ev.time - p->time);
      }
      break;
    case SpanStage::kLearn:
      if (const SpanEvent* p = prior(SpanStage::kDecide, 0, false)) {
        emit(kLearnWait, ev.time - p->time);
      }
      break;
    case SpanStage::kDeliver: {
      if (const SpanEvent* p = prior(SpanStage::kLearn, ev.node, true)) {
        emit(kMergeSkewWait, ev.time - p->time);
      }
      // One e2e sample per message: first delivery only.
      if (prior(SpanStage::kDeliver, 0, false) == nullptr) {
        if (const SpanEvent* p = prior(SpanStage::kClientSend, 0, false)) {
          emit(kEndToEnd, ev.time - p->time);
        }
      }
      break;
    }
    case SpanStage::kApply:
      emit(kApply, ev.duration);
      break;
    case SpanStage::kReply:
      if (const SpanEvent* p = prior(SpanStage::kClientSend, 0, false)) {
        emit(kClientRtt, ev.time - p->time);
      }
      break;
  }
}

void SpanCollector::record_metric(size_t metric, uint32_t stream, Tick now, Tick value) {
  if (metrics_ == nullptr) return;
  Timer*& agg = aggregate_[metric];
  if (agg == nullptr) agg = &metrics_->timer(kMetricNames[metric]);
  agg->record(now, value);
  if (stream != kSpanNoStream) {
    Timer*& per = per_stream_[metric][stream];
    if (per == nullptr) {
      per = &metrics_->timer(kMetricNames[metric], {{"stream", std::to_string(stream)}});
    }
    per->record(now, value);
  }
}

void SpanCollector::append_span_events(std::string& out, uint64_t trace,
                                       const SpanRecord& rec,
                                       std::map<uint32_t, uint32_t>& nodes,
                                       size_t& count) const {
  if (rec.events.empty()) return;
  for (const SpanEvent& ev : rec.events) nodes[ev.node] = 1;
  const SpanEvent& first = rec.events.front();
  // The parent must contain every stage interval; a duration-carrying
  // event (kApply's charged cost) can stretch past the last timestamp
  // when the reply overtakes the replica's CPU charge.
  Tick span_end = first.time;
  for (const SpanEvent& ev : rec.events) {
    if (ev.time + ev.duration > span_end) span_end = ev.time + ev.duration;
  }
  if (rec.events.size() >= 2) {
    // Parent async span on the message track (pid 0).
    appendf(out,
            ",\n{\"name\":\"e2e\",\"cat\":\"msg\",\"ph\":\"b\",\"id\":\"0x%llx\","
            "\"ts\":%.3f,\"pid\":0,\"tid\":%u}",
            static_cast<unsigned long long>(trace), to_us(first.time), first.stream);
    appendf(out,
            ",\n{\"name\":\"e2e\",\"cat\":\"msg\",\"ph\":\"e\",\"id\":\"0x%llx\","
            "\"ts\":%.3f,\"pid\":0,\"tid\":%u}",
            static_cast<unsigned long long>(trace), to_us(span_end), first.stream);
    count += 2;
  }
  // Stage intervals, recomputed exactly as publish() pairs them.
  const auto prior_before = [&rec](size_t end, SpanStage want, uint32_t node,
                                   bool same_node) -> const SpanEvent* {
    for (size_t i = end; i-- > 0;) {
      const SpanEvent& e = rec.events[i];
      if (e.stage == want && (!same_node || e.node == node)) return &e;
    }
    return nullptr;
  };
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const SpanEvent& ev = rec.events[i];
    const SpanEvent* p = nullptr;
    switch (ev.stage) {
      case SpanStage::kPropose:
        if ((p = prior_before(i, SpanStage::kClientSend, 0, false)) != nullptr) {
          append_complete(out, "propose_wait", p->time, ev.time - p->time, ev.node,
                          ev.stream, trace, count);
        }
        break;
      case SpanStage::kDecide:
        if ((p = prior_before(i, SpanStage::kPropose, 0, false)) != nullptr) {
          append_complete(out, "quorum_wait", p->time, ev.time - p->time, ev.node,
                          ev.stream, trace, count);
        }
        break;
      case SpanStage::kDurable:
        if ((p = prior_before(i, SpanStage::kDecide, ev.node, true)) != nullptr) {
          append_complete(out, "durable_wait", p->time, ev.time - p->time, ev.node,
                          ev.stream, trace, count);
        }
        break;
      case SpanStage::kLearn:
        if ((p = prior_before(i, SpanStage::kDecide, 0, false)) != nullptr) {
          append_complete(out, "learn_wait", p->time, ev.time - p->time, ev.node,
                          ev.stream, trace, count);
        }
        break;
      case SpanStage::kDeliver:
        if ((p = prior_before(i, SpanStage::kLearn, ev.node, true)) != nullptr) {
          append_complete(out, "merge_skew_wait", p->time, ev.time - p->time,
                          ev.node, ev.stream, trace, count);
        }
        break;
      case SpanStage::kApply:
        append_complete(out, "apply", ev.time, ev.duration, ev.node, ev.stream,
                        trace, count);
        break;
      case SpanStage::kClientSend:
      case SpanStage::kReply:
        break;
    }
  }
}

std::string SpanCollector::chrome_trace_json(const Trace* ring) const {
  std::string body;
  std::map<uint32_t, uint32_t> nodes;
  size_t count = 0;
  for (const auto& [trace, rec] : retired_) {
    append_span_events(body, trace, rec, nodes, count);
  }
  for (const auto& [trace, rec] : live_) {
    if (trace % sample_every_ != 0) continue;
    append_span_events(body, trace, rec, nodes, count);
  }
  if (ring != nullptr) {
    for (const TraceEvent& ev : ring->events()) {
      nodes[ev.node] = 1;
      appendf(body,
              ",\n{\"name\":\"%s\",\"cat\":\"ring\",\"ph\":\"i\",\"ts\":%.3f,"
              "\"pid\":%u,\"tid\":%u,\"s\":\"t\",\"args\":{\"a\":%llu,\"b\":%llu,"
              "\"detail\":\"",
              trace_kind_name(ev.kind), to_us(ev.time), ev.node, ev.stream,
              static_cast<unsigned long long>(ev.a),
              static_cast<unsigned long long>(ev.b));
      append_json_escaped(body, ev.detail);
      body += "\"}}";
      ++count;
    }
  }
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"messages\"}}";
  for (const auto& [node, unused] : nodes) {
    (void)unused;
    appendf(out,
            ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
            "\"args\":{\"name\":\"node%u\"}}",
            node, node);
  }
  out += body;
  out += "\n]}\n";
  return out;
}

size_t SpanCollector::export_chrome_trace(const std::string& path, const Trace* ring) const {
  const std::string json = chrome_trace_json(ring);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  // Rough event count for the caller's log line.
  size_t events = 0;
  for (char c : json) {
    if (c == '\n') ++events;
  }
  return events > 2 ? events - 2 : 0;
}

void SpanCollector::clear() {
  live_.clear();
  live_order_.clear();
  retired_.clear();
  recorded_events_ = 0;
  dropped_spans_ = 0;
}

}  // namespace epx::obs
