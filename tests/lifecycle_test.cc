// Lifecycle tests: automatic log trimming, replica join via snapshot
// state transfer, and online shard merge.
#include <gtest/gtest.h>

#include "harness/kv_cluster.h"
#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::KvCluster;
using harness::LoadClient;

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }

  template <typename Pred>
  bool run_until(Cluster& cluster, Pred pred, Tick limit) {
    const Tick deadline = cluster.now() + limit;
    while (cluster.now() < deadline) {
      if (pred()) return true;
      cluster.run_for(100 * kMillisecond);
    }
    return pred();
  }
};

TEST_F(LifecycleTest, AutoTrimBoundsAcceptorLogs) {
  ClusterOptions options;
  options.params.auto_trim = true;
  options.params.trim_interval = 1 * kSecond;
  options.params.trim_backlog = 500;
  Cluster cluster(options);
  const auto s1 = cluster.add_stream();
  cluster.add_replica(1, {s1});
  cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 8;
  cfg.payload_bytes = 256;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(15 * kSecond);
  client->stop();
  cluster.run_for(3 * kSecond);

  // ~15s of load + pacing decides tens of thousands of instances; with
  // trimming the logs stay near the backlog bound.
  for (auto* acc : cluster.acceptors(s1)) {
    EXPECT_GT(acc->trim_horizon(), 0u) << acc->name();
    EXPECT_LT(acc->log_size(), 4000u) << acc->name() << " log not trimmed";
  }
}

TEST_F(LifecycleTest, TrimWaitsForSlowestLearner) {
  ClusterOptions options;
  options.params.auto_trim = true;
  options.params.trim_interval = 1 * kSecond;
  options.params.trim_backlog = 100;
  Cluster cluster(options);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  (void)r1;

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 256;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(10 * kSecond);
  client->stop();
  cluster.run_for(2 * kSecond);

  // The trim horizon never overtakes the learner's position.
  const auto accs = cluster.acceptors(s1);
  for (auto* acc : accs) {
    EXPECT_LE(acc->trim_horizon() + options.params.trim_backlog,
              acc->decided_contiguous() + options.params.trim_backlog + 1);
  }
}

TEST_F(LifecycleTest, NewSubscriberWorksAfterTrimming) {
  // A group subscribing to a heavily trimmed stream catches up from the
  // trim horizon (the app-level snapshot covers older state).
  ClusterOptions options;
  options.params.auto_trim = true;
  options.params.trim_interval = 1 * kSecond;
  options.params.trim_backlog = 300;
  Cluster cluster(options);
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 256;
  cfg.route = [s2] { return s2; };  // build (and trim) S2 history
  auto* backlog = cluster.spawn<LoadClient>("backlog", &cluster.directory(), cfg);
  backlog->start();
  cluster.run_for(8 * kSecond);
  backlog->stop();

  cluster.controller().subscribe(1, s2, s1);
  EXPECT_TRUE(run_until(cluster, [&] { return r1->merger().subscribed_to(s2); },
                        20 * kSecond))
      << "subscription must complete against a trimmed stream";
}

TEST_F(LifecycleTest, ReplicaJoinsRunningGroupViaSnapshot) {
  KvCluster kvc;
  const uint32_t p1 = kvc.add_partition(2);
  kvc.publish();

  kv::KvClient::Config ccfg;
  ccfg.threads = 8;
  ccfg.key_space = 500;
  ccfg.value_bytes = 64;
  auto* client = kvc.add_client(ccfg);
  client->start();
  kvc.cluster().run_for(3 * kSecond);

  // Spawn a fresh replica with NO subscriptions and join it through the
  // snapshot protocol while writes continue.
  auto* donor = kvc.replicas_of(p1)[0];
  elastic::Replica::Config base;
  base.group = donor->group();
  base.params = kvc.cluster().options().params;
  kv::KvReplica::KvConfig kvcfg;
  kvcfg.partition_id = donor->partition_id();
  auto* joiner = kvc.cluster().spawn<kv::KvReplica>(
      "joiner", &kvc.cluster().directory(), base, kvcfg);
  joiner->join_via(donor->id());

  ASSERT_TRUE(run_until(kvc.cluster(), [&] { return joiner->joined(); }, 10 * kSecond));
  kvc.cluster().run_for(3 * kSecond);
  client->stop();
  kvc.cluster().run_for(2 * kSecond);

  // The joiner converged to the same store as the donor.
  EXPECT_GT(joiner->executed(), 0u) << "joiner must execute post-join commands";
  EXPECT_EQ(joiner->store(), donor->store());
}

TEST_F(LifecycleTest, OnlineShardMergeCombinesPartitions) {
  KvCluster kvc;
  const uint32_t p1 = kvc.add_partition(1);
  const uint32_t p2 = kvc.add_partition(1);
  kvc.publish();

  kv::KvClient::Config ccfg;
  ccfg.threads = 10;
  ccfg.key_space = 2000;
  ccfg.value_bytes = 64;
  ccfg.record_history = true;
  auto* client = kvc.add_client(ccfg);
  client->start();
  kvc.cluster().run_for(3 * kSecond);
  const uint64_t before = client->completed();
  EXPECT_GT(before, 200u);

  auto* survivor = kvc.replicas_of(p1)[0];
  kvc.begin_merge(p1, p2);
  ASSERT_TRUE(run_until(kvc.cluster(),
                        [&] { return survivor->merger().subscriptions().size() == 2; },
                        10 * kSecond))
      << "surviving shard must subscribe to the retiring shard's stream";
  kvc.flip_merge(p1, p2);
  kvc.cluster().run_for(2 * kSecond);  // drain the old stream
  kvc.finish_merge(p1, p2);
  ASSERT_TRUE(run_until(kvc.cluster(),
                        [&] { return survivor->merger().subscriptions().size() == 1; },
                        10 * kSecond));

  kvc.cluster().run_for(3 * kSecond);
  client->stop();
  kvc.cluster().run_for(2 * kSecond);

  EXPECT_EQ(kvc.map().partition_count(), 1u);
  EXPECT_GT(client->completed(), before + 500) << "service continues after the merge";
  // The survivor owns and serves the whole key space now.
  EXPECT_TRUE(survivor->owns(0));
  EXPECT_TRUE(survivor->owns(~0ULL));
  EXPECT_EQ(client->history().check(), "") << "merge must preserve linearizability";
}

}  // namespace
}  // namespace epx
