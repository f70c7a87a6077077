// Serial-vs-parallel differential test: the parallel conservative
// engine must reproduce the serial engine's results EXACTLY — same
// per-replica delivery order, same event counts, same metrics totals,
// same per-second counter series — for every seed, shard count and
// elastic subscription timeline, and for any shard assignment.
//
// This is the enforcement half of DESIGN.md §13's determinism claim.
// What is deliberately NOT compared: the wall-clock interleaving of
// different shards' handlers (meaningless in a DES) and the trace
// ring's record order / drop pattern (the ring is a shared debugging
// aid fed concurrently; its totals still must match, and do, via the
// metrics snapshot).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::LoadClient;

enum class Timeline {
  kSubscribeOnly,         // group 1 picks up s3 mid-run
  kSubscribeUnsubscribe,  // ... then drops s2 (full scan/align/retire)
};

struct RunResult {
  /// Order-sensitive per-replica delivery hash; index = node id. Each
  /// element is written only from its replica's shard.
  std::array<uint64_t, 64> node_hash{};
  uint64_t events = 0;
  uint64_t delivered = 0;
  uint64_t completed = 0;
  std::string metrics_json;  ///< full registry snapshot, totals only
  /// Per-second window counts of the staged network counters and each
  /// replica's delivery series (exercises cross-shard counter staging).
  std::vector<std::vector<uint64_t>> series;
  uint64_t violations = 0;  ///< invariant-monitor violations (armed runs)
};

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::vector<uint64_t> windows(const WindowedCounter& c) {
  std::vector<uint64_t> out(c.size());
  for (size_t i = 0; i < c.size(); ++i) out[i] = c.count_at(i);
  return out;
}

RunResult run_cluster(uint64_t seed, size_t threads, Timeline timeline,
                      bool scatter_assignment, bool monitored = false) {
  ClusterOptions options;
  options.seed = seed;
  options.threads = threads;  // explicit: EPX_FORCE_THREADS must not apply
  Cluster cluster(options);
  if (monitored) cluster.sim().monitors().set_enabled(true);
  if (scatter_assignment) {
    // Replace the harness's locality-aware mapping with a hash scatter
    // that splits every ring across shards: worst case for staging
    // volume, and the results must not move at all.
    cluster.sim().set_shard_assignment(
        [](uint32_t id) -> size_t { return id * 2654435761u; });
  }

  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  const auto s3 = cluster.add_stream();
  auto* r1 = cluster.add_replica(/*group=*/1, {s1, s2});
  auto* r2 = cluster.add_replica(/*group=*/1, {s1, s2});
  auto* r3 = cluster.add_replica(/*group=*/2, {s3});

  RunResult result;
  for (auto* r : {r1, r2, r3}) {
    r->set_delivery_listener([&result](net::NodeId node, const paxos::Command& cmd,
                                       paxos::StreamId stream) {
      uint64_t& h = result.node_hash[node];
      h = mix(mix(h, stream), cmd.id);
    });
  }

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 512;
  cfg.route = [s1] { return s1; };
  auto* c1 = cluster.spawn<LoadClient>("client1", &cluster.directory(), cfg);
  cfg.route = [s3] { return s3; };
  auto* c2 = cluster.spawn<LoadClient>("client2", &cluster.directory(), cfg);
  c1->start();
  c2->start();

  cluster.sim().schedule_at(1 * kSecond, [&cluster, s3, s1] {
    cluster.controller().subscribe(/*group=*/1, s3, /*via_stream=*/s1);
  });
  if (timeline == Timeline::kSubscribeUnsubscribe) {
    cluster.sim().schedule_at(2 * kSecond, [&cluster, s2, s1] {
      cluster.controller().unsubscribe(/*group=*/1, s2, /*via_stream=*/s1);
    });
  }

  cluster.run_for(3 * kSecond);
  c1->stop();
  c2->stop();
  cluster.run_for(1 * kSecond);

  result.events = cluster.sim().events_processed();
  result.delivered = r1->delivered() + r2->delivered() + r3->delivered();
  result.completed = c1->completed() + c2->completed();
  result.metrics_json = cluster.sim().metrics().to_json(/*include_series=*/false);
  const obs::MetricsRegistry& m = cluster.sim().metrics();
  for (const char* key : {"net.messages_sent", "net.messages_dropped", "net.bytes_sent"}) {
    const obs::Counter* c = m.find_counter(key);
    result.series.push_back(c != nullptr ? windows(c->series())
                                         : std::vector<uint64_t>{});
  }
  for (auto* r : {r1, r2, r3}) result.series.push_back(windows(r->delivery_series()));
  result.violations = cluster.sim().monitors().violation_count();
  return result;
}

/// Heterogeneous-latency variant: three regions on a WAN mesh
/// (5/20/50 ms), region-affine default sharding, a cross-region
/// subscribe, and mid-run link retunes in BOTH directions — a raised
/// region link (the stale-low lookahead regression), a lowered one
/// (soundness: the next window must shrink), and an explicit node-pair
/// link tighter than any WAN entry. Results must be bit-identical to
/// serial for every shard count and assignment.
RunResult run_geo_cluster(uint64_t seed, size_t threads,
                          bool scatter_assignment) {
  ClusterOptions options;
  options.seed = seed;
  options.threads = threads;  // explicit: EPX_FORCE_THREADS must not apply
  sim::Topology& topo = options.topology;
  const auto east = topo.add_region("east");
  const auto west = topo.add_region("west");
  const auto eu = topo.add_region("eu");
  const sim::LinkParams local{100 * kMicrosecond, 20 * kMicrosecond};
  for (auto r : {east, west, eu}) topo.set_intra_region_link(r, local);
  topo.set_region_link_symmetric(east, west,
                                 {5 * kMillisecond, 500 * kMicrosecond});
  topo.set_region_link_symmetric(east, eu, {20 * kMillisecond, kMillisecond});
  topo.set_region_link_symmetric(west, eu, {50 * kMillisecond, kMillisecond});

  Cluster cluster(options);
  if (scatter_assignment) {
    // Hash scatter defeats region affinity entirely: every region's
    // clique straddles shards and every WAN link may cross any pair.
    // Horrible for window width — and the results must not move.
    cluster.sim().set_shard_assignment(
        [](uint32_t id) -> size_t { return id * 2654435761u; });
  }

  cluster.set_build_region(east);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(/*group=*/1, {s1});
  cluster.set_build_region(west);
  const auto s2 = cluster.add_stream();
  auto* r2 = cluster.add_replica(/*group=*/1, {s1, s2});
  cluster.set_build_region(eu);
  auto* r3 = cluster.add_replica(/*group=*/2, {s2});

  RunResult result;
  for (auto* r : {r1, r2, r3}) {
    r->set_delivery_listener([&result](net::NodeId node,
                                       const paxos::Command& cmd,
                                       paxos::StreamId stream) {
      uint64_t& h = result.node_hash[node];
      h = mix(mix(h, stream), cmd.id);
    });
  }

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 512;
  cfg.route = [s1] { return s1; };
  cluster.set_build_region(east);
  auto* c1 = cluster.spawn<LoadClient>("client1", &cluster.directory(), cfg);
  cfg.route = [s2] { return s2; };
  cluster.set_build_region(eu);
  auto* c2 = cluster.spawn<LoadClient>("client2", &cluster.directory(), cfg);
  c1->start();
  c2->start();

  // Mid-run retunes, all at control time like any topology mutation.
  cluster.sim().schedule_at(700 * kMillisecond, [&cluster, east, west] {
    cluster.topology().set_region_link_symmetric(
        east, west, {12 * kMillisecond, 500 * kMicrosecond});  // raise
  });
  cluster.sim().schedule_at(1200 * kMillisecond, [&cluster, east, eu] {
    cluster.topology().set_region_link_symmetric(
        east, eu, {8 * kMillisecond, kMillisecond});  // lower
  });
  const net::NodeId r1_id = r1->id();
  const net::NodeId r3_id = r3->id();
  cluster.sim().schedule_at(900 * kMillisecond, [&cluster, r1_id, r3_id] {
    cluster.net().set_link(r1_id, r3_id,
                           {2 * kMillisecond, 100 * kMicrosecond});
  });
  cluster.sim().schedule_at(1 * kSecond, [&cluster, s1, s2] {
    cluster.controller().subscribe(/*group=*/2, s1, /*via_stream=*/s2);
  });

  cluster.run_for(2 * kSecond);
  c1->stop();
  c2->stop();
  cluster.run_for(500 * kMillisecond);

  result.events = cluster.sim().events_processed();
  result.delivered = r1->delivered() + r2->delivered() + r3->delivered();
  result.completed = c1->completed() + c2->completed();
  result.metrics_json = cluster.sim().metrics().to_json(/*include_series=*/false);
  const obs::MetricsRegistry& m = cluster.sim().metrics();
  for (const char* key :
       {"net.messages_sent", "net.messages_dropped", "net.bytes_sent"}) {
    const obs::Counter* c = m.find_counter(key);
    result.series.push_back(c != nullptr ? windows(c->series())
                                         : std::vector<uint64_t>{});
  }
  for (auto* r : {r1, r2, r3}) result.series.push_back(windows(r->delivery_series()));
  return result;
}

void expect_identical(const RunResult& serial, const RunResult& other,
                      const std::string& label) {
  EXPECT_EQ(serial.node_hash, other.node_hash)
      << label << ": per-replica delivery order diverged";
  EXPECT_EQ(serial.events, other.events) << label;
  EXPECT_EQ(serial.delivered, other.delivered) << label;
  EXPECT_EQ(serial.completed, other.completed) << label;
  EXPECT_EQ(serial.metrics_json, other.metrics_json) << label;
  ASSERT_EQ(serial.series.size(), other.series.size()) << label;
  for (size_t i = 0; i < serial.series.size(); ++i) {
    EXPECT_EQ(serial.series[i], other.series[i])
        << label << ": per-second series " << i << " diverged";
  }
}

class ParallelSimTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_P(ParallelSimTest, ParallelMatchesSerialAcrossShardCountsAndTimelines) {
  const uint64_t seed = GetParam();
  for (Timeline timeline : {Timeline::kSubscribeOnly, Timeline::kSubscribeUnsubscribe}) {
    const RunResult serial = run_cluster(seed, 1, timeline, false);
    EXPECT_GT(serial.completed, 100u) << "workload should make real progress";
    EXPECT_GT(serial.delivered, 0u);
    for (size_t threads : {size_t{2}, size_t{4}}) {
      const RunResult parallel = run_cluster(seed, threads, timeline, false);
      expect_identical(serial, parallel,
                       "seed " + std::to_string(seed) + " T" + std::to_string(threads) +
                           " timeline " + std::to_string(static_cast<int>(timeline)));
    }
  }
}

TEST_P(ParallelSimTest, ShardAssignmentDoesNotAffectResults) {
  const uint64_t seed = GetParam();
  const RunResult serial = run_cluster(seed, 1, Timeline::kSubscribeOnly, false);
  const RunResult scattered = run_cluster(seed, 3, Timeline::kSubscribeOnly, true);
  expect_identical(serial, scattered, "seed " + std::to_string(seed) + " scattered");
}

TEST_P(ParallelSimTest, ArmedMonitorsDoNotChangeResults) {
  // The order oracle only observes: arming it (which also moves the
  // windowed schedule onto one thread) must not change a single
  // delivery or metric, serially or on 4 shards. Group 1's subscribe to
  // group 2's stream gives the cross-group check shared commands.
  const uint64_t seed = GetParam();
  const RunResult plain = run_cluster(seed, 1, Timeline::kSubscribeUnsubscribe, false);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool monitored : {false, true}) {
      const RunResult run = run_cluster(seed, threads, Timeline::kSubscribeUnsubscribe,
                                        false, monitored);
      const std::string label = "seed " + std::to_string(seed) + " T" +
                                std::to_string(threads) +
                                (monitored ? " monitored" : " plain");
      expect_identical(plain, run, label);
      EXPECT_EQ(run.violations, 0u) << label;
    }
  }
}

TEST_P(ParallelSimTest, GeoTopologyMatchesSerialAcrossShardCounts) {
  const uint64_t seed = GetParam();
  const RunResult serial = run_geo_cluster(seed, 1, false);
  EXPECT_GT(serial.completed, 20u) << "WAN workload should make real progress";
  EXPECT_GT(serial.delivered, 0u);
  for (size_t threads : {size_t{2}, size_t{3}, size_t{4}}) {
    const RunResult parallel = run_geo_cluster(seed, threads, false);
    expect_identical(serial, parallel,
                     "geo seed " + std::to_string(seed) + " T" +
                         std::to_string(threads));
  }
}

TEST_P(ParallelSimTest, GeoTopologyShardAssignmentDoesNotAffectResults) {
  const uint64_t seed = GetParam();
  const RunResult serial = run_geo_cluster(seed, 1, false);
  const RunResult scattered = run_geo_cluster(seed, 3, true);
  expect_identical(serial, scattered,
                   "geo seed " + std::to_string(seed) + " scattered");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSimTest, ::testing::Values(7, 93));

}  // namespace
}  // namespace epx
