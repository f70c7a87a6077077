#include "obs/span.h"

#include <cstdio>
#include <optional>

#include "util/json.h"

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

// The stage intervals, shared by the registry timers (publish) and the
// Chrome trace export. When an event of `stage` is recorded, the latest
// earlier event of `from` (on the same node when `same_node`) opens its
// interval; a row whose `from` is its own stage measures the event's
// own duration. `first_only` rows count only the first event of `stage`
// in a span (one e2e sample per message however many replicas deliver).
using Stage = SpanStage;

struct StageRow {
  Stage stage;
  Stage from;
  bool same_node;
  bool first_only;
  Metric metric;
  const char* export_name;  ///< nullptr: metric only
};

constexpr StageRow kStageRows[] = {
    {Stage::kPropose, Stage::kClientSend, false, false, kProposeWait, "propose_wait"},
    {Stage::kDecide, Stage::kPropose, false, false, kQuorumWait, "quorum_wait"},
    {Stage::kDurable, Stage::kDecide, true, false, kDurableWait, "durable_wait"},
    {Stage::kLearn, Stage::kDecide, false, false, kLearnWait, "learn_wait"},
    {Stage::kDeliver, Stage::kLearn, true, false, kMergeSkewWait, "merge_skew_wait"},
    {Stage::kDeliver, Stage::kClientSend, false, true, kEndToEnd, nullptr},
    {Stage::kApply, Stage::kApply, false, false, kApply, "apply"},
    {Stage::kReply, Stage::kClientSend, false, false, kClientRtt, nullptr},
};

// Latest event of `stage` before index `end` (on `node` when same_node).
const SpanEvent* latest_before(const SpanRecord& rec, size_t end, SpanStage stage,
                               bool same_node, uint32_t node) {
  for (size_t i = end; i-- > 0;) {
    const SpanEvent& e = rec.events[i];
    if (e.stage == stage && (!same_node || e.node == node)) return &e;
  }
  return nullptr;
}

struct Interval {
  Tick start = 0;
  Tick length = 0;
};

// The interval `row` closes at rec.events[i], if the row applies there.
std::optional<Interval> stage_interval(const StageRow& row, const SpanRecord& rec,
                                       size_t i) {
  const SpanEvent& ev = rec.events[i];
  if (ev.stage != row.stage) return std::nullopt;
  if (row.from == row.stage) return Interval{ev.time, ev.duration};
  if (row.first_only && latest_before(rec, i, row.stage, false, 0) != nullptr) {
    return std::nullopt;
  }
  const SpanEvent* open = latest_before(rec, i, row.from, row.same_node, ev.node);
  if (open == nullptr) return std::nullopt;
  return Interval{open->time, ev.time - open->time};
}

double to_us(Tick t) { return static_cast<double>(t) / 1000.0; }

bool has_event(const SpanRecord& rec, SpanStage stage, uint32_t node) {
  for (const SpanEvent& ev : rec.events) {
    if (ev.stage == stage && ev.node == node) return true;
  }
  return false;
}

// Appends `part`'s events to `into` as record_impl would have, had the id
// stayed in the live table: the first (stage, node) wins, and a stream-less
// event takes the stream of the span's first event.
void merge_record(SpanRecord& into, const SpanRecord& part) {
  for (SpanEvent ev : part.events) {
    if (has_event(into, ev.stage, ev.node)) continue;
    if (ev.stream == kSpanNoStream && !into.events.empty()) {
      ev.stream = into.events.front().stream;
    }
    into.events.push_back(ev);
  }
}

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
  if (has_event(rec, stage, node)) return;  // first wins
  rec.events.push_back(SpanEvent{now, duration, stage, node, stream});
  ++recorded_events_;
  publish(rec);
}

void SpanCollector::publish(const SpanRecord& rec) {
  if (metrics_ == nullptr) return;
  const size_t i = rec.events.size() - 1;
  const SpanEvent& ev = rec.events[i];
  for (const StageRow& row : kStageRows) {
    if (const auto interval = stage_interval(row, rec, i)) {
      record_metric(row.metric, ev.stream, ev.time, interval->length);
    }
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
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const SpanEvent& ev = rec.events[i];
    for (const StageRow& row : kStageRows) {
      if (row.export_name == nullptr) continue;
      if (const auto interval = stage_interval(row, rec, i)) {
        append_complete(out, row.export_name, interval->start, interval->length, ev.node,
                        ev.stream, trace, count);
      }
    }
  }
}

std::string SpanCollector::chrome_trace_json(const Trace* ring) const {
  // An event that arrives after its span left the live table (a late
  // subscriber applying the command) opens a second record under the
  // same id. Merging every record of an id in creation order, which is
  // time order, gives each id one parent span holding all its stages.
  std::map<uint64_t, SpanRecord> spans;
  for (const auto& [trace, rec] : retired_) merge_record(spans[trace], rec);
  for (const auto& [trace, rec] : live_) {
    if (trace % sample_every_ == 0) merge_record(spans[trace], rec);
  }
  std::string body;
  std::map<uint32_t, uint32_t> nodes;
  size_t count = 0;
  for (const auto& [trace, rec] : spans) append_span_events(body, trace, rec, nodes, count);
  if (ring != nullptr) {
    for (const TraceEvent& ev : ring->events()) {
      nodes[ev.node] = 1;
      appendf(body,
              ",\n{\"name\":\"%s\",\"cat\":\"ring\",\"ph\":\"i\",\"ts\":%.3f,"
              "\"pid\":%u,\"tid\":%u,\"s\":\"t\",\"args\":{\"a\":%llu,\"b\":%llu,",
              trace_kind_name(ev.kind), to_us(ev.time), ev.node, ev.stream,
              static_cast<unsigned long long>(ev.a),
              static_cast<unsigned long long>(ev.b));
      if (ev.kind == TraceKind::kSkipRun) {
        appendf(body, "\"runs\":%u,\"last_ts\":%.3f,", ev.runs, to_us(ev.last_time));
      }
      body += "\"detail\":\"";
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
