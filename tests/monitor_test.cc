// Online invariant monitors (obs/monitor.h) and the flight recorder
// (obs/flight_recorder.h): clean feeds stay silent, injected violations
// fire with actionable diagnostics, and the first violation freezes a
// post-mortem dump.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/cluster.h"
#include "harness/load_client.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace epx {
namespace {

using obs::MonitorHub;

/// Violation-injection tests expect EPX_ERROR lines; silence them so a
/// passing suite does not look broken.
class QuietLog {
 public:
  QuietLog() : saved_(log::level()) { log::set_level(log::Level::kOff); }
  ~QuietLog() { log::set_level(saved_); }

 private:
  log::Level saved_;
};

// --- order monitor -------------------------------------------------------

TEST(OrderMonitorTest, AgreeingReplicasStaySilent) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 10);
  hub.register_replica(1, 11);
  for (uint64_t cmd = 100; cmd < 110; ++cmd) {
    hub.on_deliver(1, 10, 5, cmd, 0);
    hub.on_deliver(1, 11, 5, cmd, 0);
  }
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

TEST(OrderMonitorTest, DivergenceFiresWithOffendingIds) {
  QuietLog quiet;
  MonitorHub hub;
  hub.set_enabled(true);
  obs::MetricsRegistry metrics;
  hub.bind_metrics(&metrics);
  hub.register_replica(1, 10);
  hub.register_replica(1, 11);
  hub.on_deliver(1, 10, 5, /*cmd_id=*/100, 7);
  hub.on_deliver(1, 10, 5, /*cmd_id=*/101, 8);
  hub.on_deliver(1, 11, 5, /*cmd_id=*/100, 9);
  hub.on_deliver(1, 11, /*stream=*/6, /*cmd_id=*/999, 10);  // diverges
  ASSERT_EQ(hub.violations().size(), 1u);
  const obs::Violation& v = hub.violations()[0];
  EXPECT_EQ(v.monitor, "order");
  EXPECT_EQ(v.group, 1u);
  EXPECT_EQ(v.node, 11u);
  EXPECT_EQ(v.stream, 6u);
  // The diagnostic names the offending command, its stream, and what the
  // canonical sequence expected.
  EXPECT_NE(v.detail.find("999"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("101"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("stream 6"), std::string::npos) << v.detail;
  const obs::Counter* c =
      metrics.find_counter("monitor.violations{monitor=order}");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->total(), 1u);
}

TEST(OrderMonitorTest, UnregisteredNodeIsUnchecked) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 10);
  hub.on_deliver(1, 10, 5, 100, 0);
  hub.on_deliver(1, /*node=*/42, 5, /*cmd_id=*/777, 0);  // never registered
  EXPECT_EQ(hub.violation_count(), 0u);
}

TEST(OrderMonitorTest, LateJoinerIntoLiveGroupIsUnchecked) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 10);
  hub.on_deliver(1, 10, 5, 100, 0);
  // Joins after delivery history exists: a snapshot join, prefix not
  // comparable. Deliveries from it must not be order-checked.
  hub.register_replica(1, 11);
  hub.on_deliver(1, 11, 5, /*cmd_id=*/500, 0);
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

TEST(OrderMonitorTest, StoredViolationsAreCapped) {
  QuietLog quiet;
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 10);
  hub.register_replica(1, 11);
  hub.on_deliver(1, 10, 5, 1, 0);
  // Node 11 now disagrees on every single ordinal.
  const uint64_t n = MonitorHub::kMaxStored + 20;
  for (uint64_t i = 0; i < n; ++i) {
    hub.on_deliver(1, 10, 5, 100 + i + 1, 0);
    hub.on_deliver(1, 11, 5, 900000 + i, 0);
  }
  EXPECT_EQ(hub.violations().size(), MonitorHub::kMaxStored);
  EXPECT_EQ(hub.violation_count(), n);
}

/// Delivers `cmds` in order as `node` of `group`.
void deliver_all(MonitorHub& hub, uint64_t group, uint32_t node,
                 std::initializer_list<uint64_t> cmds) {
  for (uint64_t cmd : cmds) hub.on_deliver(group, node, 5, cmd, 0);
}

TEST(OrderMonitorTest, CrossGroupInversionFiresNamingGroupsAndCommands) {
  QuietLog quiet;
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 10);
  hub.register_replica(2, 20);
  deliver_all(hub, 1, 10, {100, 200});
  deliver_all(hub, 2, 20, {200, 100});
  ASSERT_EQ(hub.violations().size(), 1u);
  const obs::Violation& v = hub.violations()[0];
  EXPECT_EQ(v.monitor, "order");
  EXPECT_EQ(v.group, 2u);
  EXPECT_EQ(v.node, 20u);
  EXPECT_NE(v.detail.find("groups 1 and 2"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("cmd 100"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("cmd 200"), std::string::npos) << v.detail;
}

TEST(OrderMonitorTest, InterleavedSubsetsStaySilent) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 11);
  hub.register_replica(2, 12);
  deliver_all(hub, 1, 11, {1, 2, 3, 4, 5});
  // Group 2 shares a subsequence with group 1, interleaved with its own
  // commands.
  deliver_all(hub, 2, 12, {50, 2, 60, 4, 70});
  // Sharing in the other direction: group 1 now trails group 2.
  deliver_all(hub, 2, 12, {80, 90});
  deliver_all(hub, 1, 11, {6, 80, 7, 90});
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

TEST(OrderMonitorTest, DisjointGroupsStaySilent) {
  MonitorHub hub;
  hub.set_enabled(true);
  for (uint64_t group : {1u, 2u, 3u}) hub.register_replica(group, 10 + group);
  deliver_all(hub, 1, 11, {1, 2, 3});
  deliver_all(hub, 2, 12, {50, 60});
  deliver_all(hub, 3, 13, {900, 901});
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

TEST(OrderMonitorTest, DuplicateInsideGroupFires) {
  QuietLog quiet;
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 10);
  hub.register_replica(1, 11);
  deliver_all(hub, 1, 10, {100, 101, 100});
  deliver_all(hub, 1, 11, {100, 101, 100});  // agrees with the canonical
  ASSERT_EQ(hub.violations().size(), 1u);
  const obs::Violation& v = hub.violations()[0];
  EXPECT_EQ(v.monitor, "order");
  EXPECT_EQ(v.node, 10u);
  EXPECT_NE(v.detail.find("duplicate delivery in group 1: cmd 100"),
            std::string::npos)
      << v.detail;
}

TEST(OrderMonitorTest, DuplicateOlderThanDedupWindowIsSilent) {
  // A replica forgets a command id kDedupWindow deliveries later and may
  // legitimately deliver a retry again. Command 1 was first seen by
  // another group, so the sighting FIFO still holds command 100 when it
  // repeats: only the ordinal distance tells the two cases apart.
  auto repeat_after = [](uint64_t fresh) {
    QuietLog quiet;
    MonitorHub hub;
    hub.set_enabled(true);
    hub.register_replica(1, 10);
    hub.register_replica(2, 20);
    deliver_all(hub, 2, 20, {1});
    deliver_all(hub, 1, 10, {100, 1});
    for (uint64_t i = 0; i < fresh; ++i) hub.on_deliver(1, 10, 5, 1000 + i, 0);
    hub.on_deliver(1, 10, 5, 100, 0);
    return hub.violation_count();
  };
  const uint64_t w = MonitorHub::kDedupWindow;
  EXPECT_EQ(repeat_after(w - 2), 1u) << "repeat at distance kDedupWindow";
  EXPECT_EQ(repeat_after(w - 1), 0u) << "repeat past the window";
}

TEST(OrderMonitorTest, RefoundedGroupIsNotComparedWithOldIncarnation) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.register_replica(1, 10);
  hub.register_replica(2, 20);
  deliver_all(hub, 1, 10, {100, 200});
  deliver_all(hub, 2, 20, {100, 200});
  // Group 1 dissolves and is founded again: its ordinals restart at 0.
  hub.deregister_replica(1, 10);
  hub.register_replica(1, 11);
  // Neither a duplicate of the old incarnation's deliveries nor ordered
  // against the old incarnation's last match with group 2.
  deliver_all(hub, 1, 11, {100, 200});
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

// --- gap monitor ---------------------------------------------------------

TEST(GapMonitorTest, ContiguousInstancesStaySilent) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.on_learner_reset(5, 2, 1);
  for (uint64_t i = 1; i <= 20; ++i) hub.on_learner_deliver(5, 2, i, 0);
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

TEST(GapMonitorTest, SkippedInstanceFiresWithExpectedAndGot) {
  QuietLog quiet;
  MonitorHub hub;
  hub.set_enabled(true);
  hub.on_learner_reset(5, 2, 1);
  hub.on_learner_deliver(5, 2, 1, 0);
  hub.on_learner_deliver(5, 2, /*instance=*/3, 0);  // instance 2 vanished
  ASSERT_EQ(hub.violations().size(), 1u);
  const obs::Violation& v = hub.violations()[0];
  EXPECT_EQ(v.monitor, "gap");
  EXPECT_EQ(v.node, 5u);
  EXPECT_EQ(v.stream, 2u);
  EXPECT_NE(v.detail.find("expected instance 2"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("got 3"), std::string::npos) << v.detail;
  // The monitor resynchronises: the next contiguous delivery is clean.
  hub.on_learner_deliver(5, 2, 4, 0);
  EXPECT_EQ(hub.violation_count(), 1u);
}

TEST(GapMonitorTest, ReportedJumpIsLegitimate) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.on_learner_reset(5, 2, 1);
  hub.on_learner_deliver(5, 2, 1, 0);
  hub.on_learner_jump(5, 2, 10);  // recovery skipped a trimmed prefix
  hub.on_learner_deliver(5, 2, 10, 0);
  hub.on_learner_deliver(5, 2, 11, 0);
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

// --- alignment monitor ---------------------------------------------------

TEST(AlignMonitorTest, MatchingMergePointsStaySilent) {
  MonitorHub hub;
  hub.set_enabled(true);
  hub.on_merge_point(1, 10, 7, /*merge_point=*/12, /*subscribe_id=*/77, 0);
  hub.on_merge_point(1, 11, 7, 12, 77, 0);
  // A different subscribe command may align elsewhere.
  hub.on_merge_point(1, 10, 8, 30, /*subscribe_id=*/78, 0);
  hub.on_merge_point(1, 11, 8, 30, 78, 0);
  EXPECT_EQ(hub.violation_count(), 0u) << hub.summary();
}

TEST(AlignMonitorTest, MismatchFiresWithBothSlots) {
  QuietLog quiet;
  MonitorHub hub;
  hub.set_enabled(true);
  hub.on_merge_point(1, 10, 7, /*merge_point=*/12, /*subscribe_id=*/77, 0);
  hub.on_merge_point(1, 11, 7, /*merge_point=*/13, 77, 0);
  ASSERT_EQ(hub.violations().size(), 1u);
  const obs::Violation& v = hub.violations()[0];
  EXPECT_EQ(v.monitor, "align");
  EXPECT_EQ(v.node, 11u);
  EXPECT_NE(v.detail.find("subscribe cmd 77"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("slot 13"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("slot 12"), std::string::npos) << v.detail;
}

// --- flight recorder -----------------------------------------------------

TEST(FlightRecorderTest, DumpCarriesReasonTraceAndMetrics) {
  obs::MetricsRegistry metrics;
  metrics.counter("some.counter").add(0, 3);
  metrics.gauge("inbox.depth{node=n1}");  // label baked into the name is
                                          // fine for the prefix filter
  obs::Trace trace(8);
  trace.record(5, obs::TraceKind::kSubscribeBegin, 1, 2, 7);
  obs::FlightRecorder recorder(&metrics, &trace);
  const std::string json = recorder.dump("unit-test reason", 42);
  EXPECT_NE(json.find("\"unit-test reason\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_time_ns\": 42"), std::string::npos);
  EXPECT_NE(json.find("subscribe-begin"), std::string::npos);
  EXPECT_NE(json.find("some.counter"), std::string::npos);
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_TRUE(recorder.last_path().empty()) << "no prefix -> no file";
}

TEST(FlightRecorderTest, WritesFileWhenPrefixSet) {
  obs::MetricsRegistry metrics;
  obs::Trace trace(8);
  obs::FlightRecorder recorder(&metrics, &trace);
  recorder.set_path_prefix(testing::TempDir() + "fr_test_");
  recorder.dump("r1", 1);
  recorder.dump("r2", 2);
  EXPECT_EQ(recorder.dumps(), 2u);
  EXPECT_EQ(recorder.last_path(), testing::TempDir() + "fr_test_2.json");
  std::FILE* f = std::fopen(recorder.last_path().c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove((testing::TempDir() + "fr_test_1.json").c_str());
  std::remove((testing::TempDir() + "fr_test_2.json").c_str());
}

TEST(FlightRecorderTest, FirstViolationTriggersOneDump) {
  QuietLog quiet;
  obs::MetricsRegistry metrics;
  obs::Trace trace(8);
  obs::FlightRecorder recorder(&metrics, &trace);
  recorder.set_path_prefix(testing::TempDir() + "fr_violation_");
  MonitorHub hub;
  hub.set_enabled(true);
  hub.bind_flight_recorder(&recorder);
  hub.on_merge_point(1, 10, 7, 12, 77, 100);
  hub.on_merge_point(1, 11, 7, 13, 77, 110);  // violation #1 -> dump
  hub.on_merge_point(1, 12, 7, 14, 77, 120);  // violation #2 -> no dump
  EXPECT_EQ(hub.violation_count(), 2u);
  EXPECT_EQ(recorder.dumps(), 1u);
  ASSERT_FALSE(recorder.last_path().empty());
  std::FILE* f = std::fopen(recorder.last_path().c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  const size_t n = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  content.resize(n);
  EXPECT_NE(content.find("monitor:align"), std::string::npos);
  EXPECT_NE(content.find("merge-point mismatch"), std::string::npos);
  std::remove(recorder.last_path().c_str());
}

// --- live cluster: monitors watch a real run -----------------------------

TEST(MonitorClusterTest, ElasticSubscribeRunStaysClean) {
  harness::Cluster cluster;
  cluster.sim().monitors().set_enabled(true);

  const paxos::StreamId s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(/*group=*/1, {s1});
  cluster.add_replica(/*group=*/1, {s1});
  harness::LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 512;
  cfg.route = [s1] { return s1; };
  cluster.spawn<harness::LoadClient>("client", &cluster.directory(), cfg)->start();

  cluster.run_until(2 * kSecond);
  // A live subscribe exercises the alignment monitor on both members.
  const paxos::StreamId s2 = cluster.add_stream();
  cluster.controller().subscribe(1, s2, s1);
  cluster.run_until(5 * kSecond);

  EXPECT_TRUE(r1->merger().subscribed_to(s2));
  EXPECT_EQ(cluster.sim().monitors().violation_count(), 0u)
      << cluster.sim().monitors().summary();
}

}  // namespace
}  // namespace epx
