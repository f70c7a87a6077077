// Network-partition and quorum-loss tests: safety under asynchrony
// (nothing diverges while a quorum is unreachable; progress resumes on
// heal), exercising the paper's §II system model.
#include <gtest/gtest.h>

#include <unordered_set>

#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::LoadClient;

class PartitionTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_F(PartitionTest, QuorumLossHaltsButNeverDiverges) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 256;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);
  const uint64_t before = client->completed();
  EXPECT_GT(before, 0u);

  // Isolate two of the three acceptors: no quorum can form.
  const auto accs = cluster.acceptors(s1);
  cluster.net().partition({accs[1]->id(), accs[2]->id()});
  cluster.run_for(3 * kSecond);
  const uint64_t during = client->completed();
  EXPECT_LE(during - before, 10u) << "no quorum -> (almost) no progress";

  cluster.net().heal();
  cluster.run_for(5 * kSecond);
  client->stop();
  cluster.run_for(2 * kSecond);

  EXPECT_GT(client->completed(), during + 100) << "progress resumes after heal";
  EXPECT_TRUE(testing::monitors_clean(cluster)) << "asynchrony must never break safety";
  EXPECT_EQ(r1->delivered(), r2->delivered());
}

TEST_F(PartitionTest, IsolatedReplicaCatchesUpAfterHeal) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 256;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);

  // Cut replica 2 off; the rest of the system keeps running.
  cluster.net().partition({r2->id()});
  cluster.run_for(3 * kSecond);
  EXPECT_GT(r1->delivered(), r2->delivered() + 100);

  cluster.net().heal();
  cluster.run_for(3 * kSecond);
  client->stop();
  cluster.run_for(3 * kSecond);

  // Learner gap-repair pulls the isolated replica back level.
  EXPECT_NEAR(static_cast<double>(r2->delivered()), static_cast<double>(r1->delivered()),
              5.0);
  EXPECT_TRUE(testing::monitors_clean(cluster));
}

TEST_F(PartitionTest, SubscriptionStallsAcrossPartitionAndRecovers) {
  // Partition the NEW stream's acceptors during a subscription: the scan
  // cannot find the twin request until the partition heals.
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 256;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(1 * kSecond);

  // Isolate stream 2 entirely (coordinator + acceptors).
  std::unordered_set<net::NodeId> island;
  island.insert(cluster.directory().get(s2).coordinator);
  for (auto* a : cluster.acceptors(s2)) island.insert(a->id());
  cluster.net().partition(island);

  cluster.controller().subscribe(1, s2, s1);
  cluster.run_for(3 * kSecond);
  EXPECT_FALSE(r1->merger().subscribed_to(s2)) << "unreachable stream cannot merge";
  EXPECT_NE(r1->merger().phase(), elastic::ElasticMerger::Phase::kNormal);

  cluster.net().heal();
  const Tick deadline = cluster.now() + 20 * kSecond;
  while (cluster.now() < deadline && !r1->merger().subscribed_to(s2)) {
    cluster.run_for(200 * kMillisecond);
  }
  EXPECT_TRUE(r1->merger().subscribed_to(s2)) << "subscription completes after heal";
  client->stop();
}

}  // namespace
}  // namespace epx
