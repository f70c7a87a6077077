// Replica-host unit tests: delivery dedup, reply policy, crash
// behaviour, and equivalence of the elastic merger with the static
// baseline when subscriptions never change.
#include <gtest/gtest.h>

#include "multicast/static_merger.h"
#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::LoadClient;

class ReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_F(ReplicaTest, DeliveryDedupSuppressesDuplicateOrderings) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  elastic::Replica::Config cfg;
  cfg.group = 1;
  cfg.initial_streams = {s1};
  cfg.params = cluster.options().params;
  auto* r1 = cluster.add_replica(cfg);

  // Propose the same command id twice, spaced past the coordinator TTL
  // so both copies get ordered.
  paxos::Command cmd;
  cmd.id = paxos::make_command_id(5, 1);
  cmd.payload_size = 16;
  auto& controller = cluster.controller();
  const auto coord = cluster.directory().get(s1).coordinator;
  controller.send(coord, net::make_message<paxos::ClientProposeMsg>(s1, cmd));
  cluster.run_for(1 * kSecond);
  controller.send(coord, net::make_message<paxos::ClientProposeMsg>(s1, cmd));
  cluster.run_for(1 * kSecond);
  EXPECT_EQ(cluster.coordinator(s1)->commands_proposed(), 2u) << "both copies ordered";
  EXPECT_EQ(r1->delivered(), 1u) << "but delivered once";
}

TEST_F(ReplicaTest, RepliesOnlyWhenConfigured) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  elastic::Replica::Config cfg;
  cfg.group = 1;
  cfg.initial_streams = {s1};
  cfg.params = cluster.options().params;
  cfg.send_replies = false;  // app layer owns replies
  cluster.add_replica(cfg);

  LoadClient::Config lc;
  lc.threads = 1;
  lc.payload_bytes = 64;
  lc.retry_timeout = 3600 * kSecond;
  lc.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), lc);
  client->start();
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(client->completed(), 0u) << "no replica replies -> no completions";
}

TEST_F(ReplicaTest, CrashStopsDeliveryPermanently) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config lc;
  lc.threads = 2;
  lc.payload_bytes = 64;
  lc.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), lc);
  client->start();
  cluster.run_for(2 * kSecond);
  r1->crash();
  const uint64_t at_crash = r1->delivered();
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(r1->delivered(), at_crash);
  EXPECT_GT(r2->delivered(), at_crash) << "the healthy replica keeps going";
  EXPECT_GT(client->completed(), 0u);
}

TEST_F(ReplicaTest, ElasticMergerMatchesStaticBaselineWhenStatic) {
  // With subscriptions fixed, the elastic merger must be
  // indistinguishable from classic Multi-Ring Paxos' static merge.
  Rng rng(42);
  std::vector<uint64_t> elastic_out, static_out;

  elastic::ElasticMerger em(
      1, {[](paxos::StreamId) {}, [](paxos::StreamId) {},
          [&](const paxos::Command& c, paxos::StreamId) { elastic_out.push_back(c.id); },
          [](const paxos::Command&) {}});
  em.bootstrap({1, 2, 3});
  multicast::StaticMerger sm({1, 2, 3}, [&](const paxos::Command& c, paxos::StreamId) {
    static_out.push_back(c.id);
  });

  std::map<paxos::StreamId, paxos::SlotIndex> pos;
  uint64_t id = 0;
  for (int round = 0; round < 500; ++round) {
    const paxos::StreamId s = static_cast<paxos::StreamId>(1 + rng.uniform(3));
    paxos::Proposal p;
    p.first_slot = pos[s];
    if (rng.chance(0.4)) {
      p.skip_slots = 1 + rng.uniform(4);
    } else {
      paxos::Command c;
      c.id = ++id;
      c.payload_size = 8;
      p.commands.push_back(c);
    }
    pos[s] += p.slot_count();
    em.queue(s).push_proposal(p);
    sm.queue(s).push_proposal(p);
    em.pump();
    sm.pump();
  }
  EXPECT_EQ(elastic_out, static_out);
  EXPECT_GT(elastic_out.size(), 50u);
}

}  // namespace
}  // namespace epx
