// Replica-host unit tests: delivery dedup, reply policy, crash
// behaviour, and the elastic merger's lock-step order when
// subscriptions never change.
#include <gtest/gtest.h>

#include <map>
#include <vector>

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
  // With subscriptions fixed, the elastic merger must deliver the static
  // lock-step order of classic Multi-Ring Paxos. The expected order is a
  // walk over slot index k = 0, 1, ..., visiting the streams in ascending
  // id at each k, that stops at the first slot not pushed yet. It reads
  // only the pushed proposals, so it shares no code with StreamQueue.
  const std::vector<paxos::StreamId> streams = {1, 2, 3};
  std::map<paxos::StreamId, std::vector<uint64_t>> slots;  // command id, 0 = skip
  const auto lock_step = [&] {
    std::vector<uint64_t> order;
    for (size_t k = 0;; ++k) {
      for (const paxos::StreamId s : streams) {
        const std::vector<uint64_t>& pushed = slots[s];
        if (k >= pushed.size()) return order;
        if (pushed[k] != 0) order.push_back(pushed[k]);
      }
    }
  };

  Rng rng(42);
  std::vector<uint64_t> delivered;
  elastic::ElasticMerger em(
      1, {[](paxos::StreamId) {}, [](paxos::StreamId) {},
          [&](const paxos::Command& c, paxos::StreamId) { delivered.push_back(c.id); },
          [](const paxos::Command&) {}});
  em.bootstrap(streams);

  uint64_t id = 0;
  for (int round = 0; round < 500; ++round) {
    const paxos::StreamId s = static_cast<paxos::StreamId>(1 + rng.uniform(3));
    std::vector<uint64_t>& pushed = slots[s];
    paxos::Proposal p;
    p.first_slot = pushed.size();
    if (rng.chance(0.4)) {
      p.skip_slots = 1 + rng.uniform(4);
      pushed.insert(pushed.end(), p.skip_slots, 0);
    } else {
      paxos::Command c;
      c.id = ++id;
      c.payload_size = 8;
      p.commands.push_back(c);
      pushed.push_back(c.id);
    }
    em.queue(s).push_proposal(std::move(p));
    em.pump();
    ASSERT_EQ(delivered, lock_step()) << "after proposal " << round;
  }
  EXPECT_GT(delivered.size(), 50u);
}

}  // namespace
}  // namespace epx
