// Property-based tests (parameterized seed sweeps):
//   * merger determinism — delivery is a pure function of stream
//     contents, independent of arrival interleaving,
//   * atomic multicast ordering invariants under random dynamic
//     subscription schedules and message loss,
//   * linearizability of the KV store under random mixed workloads.
#include <gtest/gtest.h>

#include <algorithm>

#include "elastic/elastic_merger.h"
#include "harness/kv_cluster.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::KvCluster;
using harness::LoadClient;

// ------------------------------------------------- merger determinism --

class MergerDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergerDeterminismTest, DeliveryIndependentOfArrivalInterleaving) {
  Rng rng(GetParam());

  // Build random slot sequences for three streams: app values, skips,
  // and one subscribe pair wiring stream 3 in at a random position.
  const std::vector<paxos::StreamId> streams = {1, 2, 3};
  std::map<paxos::StreamId, std::vector<paxos::Proposal>> content;
  uint64_t next_cmd = 100;
  for (paxos::StreamId s : streams) {
    paxos::SlotIndex slot = 0;
    const size_t n = 30 + rng.uniform(40);
    for (size_t i = 0; i < n; ++i) {
      paxos::Proposal p;
      p.first_slot = slot;
      if (rng.chance(0.3)) {
        p.skip_slots = 1 + rng.uniform(3);
      } else {
        paxos::Command c;
        c.id = next_cmd++;
        c.payload_size = 8;
        p.commands.push_back(c);
      }
      slot += p.slot_count();
      content[s].push_back(p);
    }
  }
  // Insert the subscribe twin for stream 3 into streams 1 and 3 at the
  // tail (group 1 initially subscribes to {1, 2}).
  const uint64_t sub_id = 9999;
  for (paxos::StreamId s : {1u, 3u}) {
    paxos::Proposal p;
    p.first_slot = content[s].back().first_slot + content[s].back().slot_count();
    p.commands.push_back(paxos::make_subscribe(sub_id, 1, 3));
    content[s].push_back(p);
    // Pad generously past the merge point so alignment can complete.
    paxos::Proposal pad;
    pad.first_slot = p.first_slot + 1;
    pad.skip_slots = 400;
    content[s].push_back(pad);
  }
  {
    paxos::Proposal pad;
    pad.first_slot =
        content[2].back().first_slot + content[2].back().slot_count();
    pad.skip_slots = 400;
    content[2].push_back(pad);
  }

  auto run_interleaving = [&](uint64_t order_seed) {
    Rng order_rng(order_seed);
    std::vector<uint64_t> delivered;
    elastic::ElasticMerger merger(
        1, {[](paxos::StreamId) {}, [](paxos::StreamId) {},
            [&](const paxos::Command& c, paxos::StreamId) { delivered.push_back(c.id); },
            [](const paxos::Command&) {}});
    merger.bootstrap({1, 2});
    std::map<paxos::StreamId, size_t> cursor;
    for (;;) {
      // Pick a random stream that still has proposals to feed.
      std::vector<paxos::StreamId> candidates;
      for (paxos::StreamId s : streams) {
        if (cursor[s] < content[s].size()) candidates.push_back(s);
      }
      if (candidates.empty()) break;
      const paxos::StreamId s =
          candidates[order_rng.uniform(candidates.size())];
      merger.queue(s).push_proposal(content[s][cursor[s]++]);
      merger.pump();
    }
    merger.pump();
    return delivered;
  };

  const auto a = run_interleaving(1);
  const auto b = run_interleaving(2);
  const auto c = run_interleaving(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_GT(a.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergerDeterminismTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --------------------------------- dynamic subscriptions, random plan --

class MulticastPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_P(MulticastPropertyTest, AcyclicOrderUnderRandomSchedules) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  ClusterOptions options;
  options.seed = seed;
  Cluster cluster(options);
  cluster.sim().monitors().set_enabled(true);
  if (rng.chance(0.5)) cluster.net().set_loss_probability(0.01);

  const size_t num_streams = 3;
  std::vector<paxos::StreamId> streams;
  for (size_t i = 0; i < num_streams; ++i) streams.push_back(cluster.add_stream());

  // Two groups of two replicas with random (nonempty) initial
  // subscriptions.
  struct Group {
    paxos::GroupId id;
    std::vector<paxos::StreamId> subscribed;
  };
  std::vector<Group> groups;
  for (paxos::GroupId g = 1; g <= 2; ++g) {
    Group group;
    group.id = g;
    group.subscribed = {streams[rng.uniform(streams.size())]};
    for (int m = 0; m < 2; ++m) cluster.add_replica(g, group.subscribed);
    groups.push_back(std::move(group));
  }

  // Load on every stream.
  for (paxos::StreamId s : streams) {
    LoadClient::Config cfg;
    cfg.threads = 2;
    cfg.payload_bytes = 256;
    cfg.retry_timeout = 700 * kMillisecond;
    cfg.route = [s] { return s; };
    cluster.spawn<LoadClient>("load" + std::to_string(s), &cluster.directory(), cfg)
        ->start();
  }

  // Random schedule of subscription changes, serialized with settling
  // time between operations.
  for (int op = 0; op < 5; ++op) {
    cluster.run_for(from_seconds(1.5 + rng.uniform_double()));
    Group& group = groups[rng.uniform(groups.size())];
    if (group.subscribed.size() > 1 && rng.chance(0.4)) {
      const size_t victim = rng.uniform(group.subscribed.size());
      const paxos::StreamId target = group.subscribed[victim];
      const paxos::StreamId via =
          group.subscribed[(victim + 1) % group.subscribed.size()];
      cluster.controller().unsubscribe(group.id, target, via);
      group.subscribed.erase(group.subscribed.begin() + static_cast<long>(victim));
    } else {
      std::vector<paxos::StreamId> fresh;
      for (paxos::StreamId s : streams) {
        if (std::find(group.subscribed.begin(), group.subscribed.end(), s) ==
            group.subscribed.end()) {
          fresh.push_back(s);
        }
      }
      if (fresh.empty()) continue;
      const paxos::StreamId target = fresh[rng.uniform(fresh.size())];
      const paxos::StreamId via = group.subscribed[rng.uniform(group.subscribed.size())];
      if (rng.chance(0.5)) cluster.controller().prepare(group.id, target, via);
      cluster.controller().subscribe(group.id, target, via);
      group.subscribed.push_back(target);
    }
  }
  cluster.run_for(5 * kSecond);

  // Invariants, checked online by the order monitor: no duplicates,
  // pairwise-consistent order across groups, identical order within
  // each group (prefix tolerated at the cut).
  EXPECT_TRUE(testing::monitors_clean(cluster)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MulticastPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ------------------------------------------------ KV linearizability --

class KvPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_P(KvPropertyTest, RandomWorkloadIsLinearizable) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  ClusterOptions options;
  options.seed = seed;
  KvCluster kvc(options);
  const size_t partitions = 1 + rng.uniform(2);
  for (size_t p = 0; p < partitions; ++p) kvc.add_partition(1 + rng.uniform(2));
  kvc.publish();
  if (rng.chance(0.4)) kvc.cluster().net().set_loss_probability(0.01);

  kv::KvClient::Config cfg;
  cfg.threads = 4 + rng.uniform(6);
  cfg.key_space = 30;  // small key space -> heavy per-key contention
  cfg.value_bytes = 32;
  cfg.get_ratio = 0.4;
  cfg.retry_timeout = 700 * kMillisecond;
  cfg.seed = seed;
  cfg.record_history = true;
  auto* client = kvc.add_client(cfg);
  client->start();

  kvc.cluster().run_for(6 * kSecond);
  client->stop();
  kvc.cluster().run_for(1 * kSecond);

  ASSERT_GT(client->completed(), 100u) << "seed " << seed;
  EXPECT_EQ(client->history().check(), "") << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace epx
