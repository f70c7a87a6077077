// Causal span layer (obs/span.h): collector semantics, metric pairing,
// Chrome trace export structure, and an end-to-end traced mini-cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/load_client.h"
#include "harness/report.h"
#include "obs/span.h"

namespace epx {
namespace {

using obs::SpanCollector;
using obs::SpanStage;

// --- collector semantics -------------------------------------------------

TEST(SpanCollectorTest, DisabledRecordsNothing) {
  SpanCollector spans;
  spans.record(7, SpanStage::kClientSend, 10, 1, 1);
  EXPECT_EQ(spans.recorded_events(), 0u);
  EXPECT_TRUE(spans.live().empty());
}

TEST(SpanCollectorTest, ZeroTraceIdIgnored) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.record(0, SpanStage::kClientSend, 10, 1, 1);
  EXPECT_EQ(spans.recorded_events(), 0u);
}

TEST(SpanCollectorTest, DuplicateStageNodeFirstWins) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.record(7, SpanStage::kClientSend, 10, 1, 1);
  spans.record(7, SpanStage::kClientSend, 99, 1, 1);  // client retry
  const auto& rec = spans.live().at(7);
  ASSERT_EQ(rec.events.size(), 1u);
  EXPECT_EQ(rec.events[0].time, 10);
  // Same stage on a *different* node is a distinct event (two replicas
  // both deliver the same message).
  spans.record(7, SpanStage::kDeliver, 20, 2, 1);
  spans.record(7, SpanStage::kDeliver, 21, 3, 1);
  EXPECT_EQ(spans.live().at(7).events.size(), 3u);
}

TEST(SpanCollectorTest, NoStreamInheritsFirstEventStream) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.record(7, SpanStage::kClientSend, 10, 1, /*stream=*/4);
  spans.record(7, SpanStage::kReply, 50, 1, obs::kSpanNoStream);
  const auto& rec = spans.live().at(7);
  EXPECT_EQ(rec.events[1].stream, 4u);
}

TEST(SpanCollectorTest, PublishesStageTimers) {
  obs::MetricsRegistry metrics;
  SpanCollector spans;
  spans.set_enabled(true);
  spans.bind_metrics(&metrics);

  // One full lifecycle on stream 4, delivered by nodes 20 and 21.
  spans.record(7, SpanStage::kClientSend, 100, 1, 4);
  spans.record(7, SpanStage::kPropose, 130, 10, 4);
  spans.record(7, SpanStage::kDecide, 190, 11, 4);
  spans.record(7, SpanStage::kLearn, 220, 20, 4);
  spans.record(7, SpanStage::kLearn, 230, 21, 4);
  spans.record(7, SpanStage::kDeliver, 300, 20, 4);
  spans.record(7, SpanStage::kDeliver, 330, 21, 4);
  spans.record(7, SpanStage::kApply, 300, 20, 4, /*duration=*/42);
  spans.record(7, SpanStage::kReply, 400, 1, obs::kSpanNoStream);

  const auto total = [&](const char* key) {
    const obs::Timer* t = metrics.find_timer(key);
    return t != nullptr ? t->total() : Histogram{};
  };
  EXPECT_EQ(total("span.propose_wait").count(), 1u);
  EXPECT_EQ(total("span.propose_wait").max(), 30u);
  EXPECT_EQ(total("span.quorum_wait").max(), 60u);
  // merge.skew_wait pairs learn -> deliver on the SAME node: 300-220 and
  // 330-230.
  EXPECT_EQ(total("merge.skew_wait").count(), 2u);
  EXPECT_EQ(total("merge.skew_wait").max(), 100u);
  // e2e is recorded once, at the first delivery only.
  EXPECT_EQ(total("span.e2e").count(), 1u);
  EXPECT_EQ(total("span.e2e").max(), 200u);
  EXPECT_EQ(total("span.apply").max(), 42u);
  EXPECT_EQ(total("span.client_rtt").max(), 300u);
  // Per-stream flavour exists alongside the aggregate.
  EXPECT_EQ(total("merge.skew_wait{stream=4}").count(), 2u);
}

TEST(SpanCollectorTest, EvictionKeepsSampledSpansAndCountsDrops) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.set_sample_every(2);             // even ids are export-sampled
  spans.set_capacity(/*max_live=*/4, /*max_retired=*/1);
  for (uint64_t id = 1; id <= 12; ++id) {
    spans.record(id, SpanStage::kClientSend, static_cast<Tick>(id), 1, 1);
  }
  EXPECT_LE(spans.live().size(), 4u);
  // 8 spans were evicted; 4 of them sampled, 1 retained, 3 dropped.
  EXPECT_EQ(spans.dropped_spans(), 3u);
}

TEST(SpanCollectorTest, EvictionQueueStaysBoundedByLiveCapacity) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.set_capacity(/*max_live=*/8, /*max_retired=*/8);
  size_t longest = 0;
  for (uint64_t id = 1; id <= 100000; ++id) {
    spans.record(id, SpanStage::kClientSend, static_cast<Tick>(id), 1, 1);
    longest = std::max(longest, spans.eviction_queue_size());
  }
  EXPECT_LE(longest, 8u);
  EXPECT_EQ(spans.eviction_queue_size(), spans.live().size());
}

// --- Chrome trace export -------------------------------------------------

// The exporter emits one JSON object per line; pull one string / number
// field out of a line without a JSON parser.
std::string json_str_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

double json_num_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Structural validation mirroring tools/epx-trace/validate.py: async
/// begin/end balance and stage-in-parent containment.
void validate_chrome_trace(const std::string& json, size_t* spans_out,
                           size_t* stages_out) {
  std::map<std::string, double> open;                       // id -> begin ts
  std::map<std::string, std::pair<double, double>> closed;  // id -> [b, e]
  std::vector<std::string> stage_lines;
  for (const std::string& line : split_lines(json)) {
    const std::string ph = json_str_field(line, "ph");
    if (ph == "b") {
      const std::string id = json_str_field(line, "id");
      EXPECT_EQ(open.count(id) + closed.count(id), 0u) << "duplicate begin " << id;
      open[id] = json_num_field(line, "ts");
    } else if (ph == "e") {
      const std::string id = json_str_field(line, "id");
      ASSERT_EQ(open.count(id), 1u) << "end without begin " << id;
      const double begin = open[id];
      const double end = json_num_field(line, "ts");
      EXPECT_GE(end, begin) << id;
      closed[id] = {begin, end};
      open.erase(id);
    } else if (ph == "X") {
      EXPECT_GE(json_num_field(line, "dur"), 0.0) << line;
      stage_lines.push_back(line);
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " spans never ended";
  size_t contained = 0;
  for (const std::string& line : stage_lines) {
    const std::string parent = json_str_field(line, "trace");
    auto it = closed.find(parent);
    if (it == closed.end()) continue;  // parent span not exported (< 2 events)
    const double ts = json_num_field(line, "ts");
    const double dur = json_num_field(line, "dur");
    EXPECT_GE(ts + 1e-6, it->second.first) << line;
    EXPECT_LE(ts + dur, it->second.second + 1e-6) << line;
    ++contained;
  }
  if (spans_out != nullptr) *spans_out = closed.size();
  if (stages_out != nullptr) *stages_out = contained;
}

TEST(SpanExportTest, SyntheticSpanRoundTrips) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.record(0x70, SpanStage::kClientSend, 1000, 1, 4);
  spans.record(0x70, SpanStage::kPropose, 2000, 10, 4);
  spans.record(0x70, SpanStage::kDecide, 3000, 11, 4);
  spans.record(0x70, SpanStage::kLearn, 4000, 20, 4);
  spans.record(0x70, SpanStage::kDeliver, 6000, 20, 4);
  spans.record(0x70, SpanStage::kApply, 6000, 20, 4, /*duration=*/500);
  // An apply interval stretching past the reply must still be contained.
  spans.record(0x70, SpanStage::kReply, 6200, 1, obs::kSpanNoStream);

  obs::Trace ring(16);
  ring.record(5000, obs::TraceKind::kMergePoint, 20, 4, 12);
  const std::string json = spans.chrome_trace_json(&ring);

  size_t span_count = 0;
  size_t stage_count = 0;
  validate_chrome_trace(json, &span_count, &stage_count);
  EXPECT_EQ(span_count, 1u);
  // propose_wait, quorum_wait, learn_wait, merge_skew_wait, apply.
  EXPECT_EQ(stage_count, 5u);
  EXPECT_NE(json.find("\"0x70\""), std::string::npos);
  EXPECT_NE(json.find("merge_skew_wait"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ring\""), std::string::npos);
  EXPECT_NE(json.find("merge-point"), std::string::npos);
}

TEST(SpanExportTest, LateEventAfterEvictionExportsOneSpanPerId) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.set_capacity(/*max_live=*/2, /*max_retired=*/8);
  spans.record(0x70, SpanStage::kClientSend, 1000, 1, 4);
  spans.record(0x70, SpanStage::kDeliver, 3000, 20, 4);
  spans.record(0x70, SpanStage::kApply, 3000, 20, 4, /*duration=*/100);
  // Two newer spans push 0x70 out of the live table into the retired list.
  spans.record(0x71, SpanStage::kClientSend, 4000, 1, 4);
  spans.record(0x72, SpanStage::kClientSend, 5000, 1, 4);
  ASSERT_EQ(spans.live().count(0x70), 0u);
  // A late subscriber delivers and applies 0x70: a second record opens.
  spans.record(0x70, SpanStage::kDeliver, 9000, 30, 4);
  spans.record(0x70, SpanStage::kApply, 9000, 30, 4, /*duration=*/100);
  ASSERT_EQ(spans.live().count(0x70), 1u);

  const std::string json = spans.chrome_trace_json();
  size_t begins = 0;
  size_t ends = 0;
  size_t applies = 0;
  for (const std::string& line : split_lines(json)) {
    const std::string ph = json_str_field(line, "ph");
    if (ph == "b" && json_str_field(line, "id") == "0x70") ++begins;
    if (ph == "e" && json_str_field(line, "id") == "0x70") ++ends;
    if (ph == "X" && json_str_field(line, "name") == "apply") ++applies;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(applies, 2u);  // both replicas' applies, under the one parent
  size_t span_count = 0;
  validate_chrome_trace(json, &span_count, nullptr);
  EXPECT_EQ(span_count, 1u);
}

TEST(SpanExportTest, WritesFile) {
  SpanCollector spans;
  spans.set_enabled(true);
  spans.record(2, SpanStage::kClientSend, 10, 1, 1);
  spans.record(2, SpanStage::kDeliver, 30, 5, 1);
  const std::string path = testing::TempDir() + "span_export_test.json";
  EXPECT_GT(spans.export_chrome_trace(path), 0u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

// --- end-to-end traced cluster -------------------------------------------

TEST(SpanEndToEndTest, TracedClusterProducesCompleteSpans) {
  harness::Cluster cluster;
  cluster.sim().spans().set_enabled(true);
  cluster.sim().spans().set_sample_every(1);
  cluster.sim().monitors().set_enabled(true);

  // Two streams feeding one group: the round-robin merge makes the
  // dMerge hold (merge.skew_wait) strictly positive for most commands.
  const paxos::StreamId s1 = cluster.add_stream();
  const paxos::StreamId s2 = cluster.add_stream();
  cluster.add_replica(/*group=*/1, {s1, s2});
  cluster.add_replica(/*group=*/1, {s1, s2});
  for (paxos::StreamId s : {s1, s2}) {
    harness::LoadClient::Config cfg;
    cfg.threads = 2;
    cfg.payload_bytes = 512;
    cfg.route = [s] { return s; };
    cluster
        .spawn<harness::LoadClient>("client_s" + std::to_string(s),
                                    &cluster.directory(), cfg)
        ->start();
  }
  cluster.run_until(3 * kSecond);

  const obs::MetricsRegistry& metrics = cluster.sim().metrics();
  const auto count = [&](const char* key) {
    const obs::Timer* t = metrics.find_timer(key);
    return t != nullptr ? t->total().count() : 0u;
  };
  EXPECT_GT(count("span.propose_wait"), 0u);
  EXPECT_GT(count("span.quorum_wait"), 0u);
  EXPECT_GT(count("span.learn_wait"), 0u);
  EXPECT_GT(count("span.e2e"), 0u);
  EXPECT_GT(count("span.client_rtt"), 0u);
  const obs::Timer* skew = metrics.find_timer("merge.skew_wait");
  ASSERT_NE(skew, nullptr);
  EXPECT_GT(skew->total().count(), 0u);
  EXPECT_GT(skew->total().max(), 0u) << "two-stream round-robin must hold "
                                        "commands while the sibling catches up";
  // Per-stream flavours exist for both streams.
  EXPECT_GT(count(("merge.skew_wait{stream=" + std::to_string(s1) + "}").c_str()),
            0u);
  EXPECT_GT(count(("merge.skew_wait{stream=" + std::to_string(s2) + "}").c_str()),
            0u);

  // The exported trace is structurally valid with nested stages.
  size_t span_count = 0;
  size_t stage_count = 0;
  validate_chrome_trace(cluster.sim().spans().chrome_trace_json(), &span_count,
                        &stage_count);
  EXPECT_GT(span_count, 10u);
  EXPECT_GT(stage_count, span_count) << "several stage intervals per span";

  // The invariant monitors watched the whole run and stayed silent.
  EXPECT_EQ(cluster.sim().monitors().violation_count(), 0u)
      << cluster.sim().monitors().summary();

  // The stage table renders the span metrics by name (harness S2 path).
  const std::string table = harness::render_stage_table(
      metrics, "stages", harness::default_stage_rows());
  EXPECT_NE(table.find("merge-skew-wait"), std::string::npos);
  EXPECT_NE(table.find("end-to-end"), std::string::npos);
}

TEST(SpanEndToEndTest, UntracedClusterRecordsNothing) {
  harness::Cluster cluster;
  const paxos::StreamId s1 = cluster.add_stream();
  cluster.add_replica(/*group=*/1, {s1});
  harness::LoadClient::Config cfg;
  cfg.threads = 1;
  cfg.payload_bytes = 256;
  cfg.route = [s1] { return s1; };
  cluster.spawn<harness::LoadClient>("client", &cluster.directory(), cfg)->start();
  cluster.run_until(1 * kSecond);
  EXPECT_EQ(cluster.sim().spans().recorded_events(), 0u);
  EXPECT_EQ(cluster.sim().metrics().find_timer("span.e2e"), nullptr);
}

}  // namespace
}  // namespace epx
