// Integration tests of the partitioned key/value store: basic
// operations, cross-partition getrange with signal coordination, online
// split (the Fig. 4 scenario), wrong-partition discard + client re-send,
// and snapshot-based state transfer.
#include <gtest/gtest.h>

#include "checker/linearizability.h"
#include "harness/kv_cluster.h"
#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::KvCluster;
using kv::KvClient;
using kv::KvReplica;

class KvIntegrationTest : public ::testing::Test {
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

class KvClientTest : public KvIntegrationTest {};

TEST_F(KvClientTest, RetryFiresAtEachTimeoutWhileUnanswered) {
  // A partition with no replicas orders commands but never answers:
  // each thread re-sends at exactly sent_at + k x retry_timeout. Threads
  // launch 10 ms after start(), once the partition map has arrived.
  KvCluster kvc;
  kvc.add_partition(0);
  kvc.publish();
  KvClient::Config cfg;
  cfg.threads = 2;
  cfg.key_space = 100;
  cfg.value_bytes = 64;
  cfg.retry_timeout = 300 * kMillisecond;
  auto* client = kvc.add_client(cfg);
  client->start();
  kvc.cluster().run_for(309 * kMillisecond);
  EXPECT_EQ(client->retries(), 0u);
  kvc.cluster().run_for(2 * kMillisecond);
  EXPECT_EQ(client->retries(), 2u) << "one retry per thread at 310 ms";
  kvc.cluster().run_for(699 * kMillisecond);
  EXPECT_EQ(client->retries(), 6u) << "and again at 610 and 910 ms";
  EXPECT_EQ(client->completed(), 0u);
}

TEST_F(KvClientTest, AnsweredOpsQueueNoTimerTasks) {
  // Every operation is answered long before its retry is due, so no
  // per-operation timer task lands in the client's inbox.
  KvCluster kvc;
  kvc.add_partition(2);
  kvc.publish();
  KvClient::Config cfg;
  cfg.threads = 64;
  cfg.key_space = 1000;
  cfg.value_bytes = 64;
  cfg.get_ratio = 0.5;
  auto* client = kvc.add_client(cfg);
  client->start();
  kvc.cluster().run_for(3 * kSecond);
  EXPECT_GT(client->completed(), 1000u);
  EXPECT_EQ(client->retries(), 0u);
  const obs::Gauge* depth =
      kvc.cluster().sim().metrics().find_gauge("inbox.depth{node=" + client->name() + "}");
  ASSERT_NE(depth, nullptr);
  EXPECT_LE(depth->max(), 2.0);
}

TEST_F(KvIntegrationTest, PutAndGetSinglePartition) {
  KvCluster kvc;
  kvc.add_partition(2);
  kvc.publish();

  KvClient::Config cfg;
  cfg.threads = 4;
  cfg.key_space = 100;
  cfg.value_bytes = 64;
  cfg.get_ratio = 0.5;
  cfg.record_history = true;
  auto* client = kvc.add_client(cfg);
  client->start();

  kvc.cluster().run_for(5 * kSecond);
  client->stop();
  kvc.cluster().run_for(1 * kSecond);

  EXPECT_GT(client->completed(), 200u);
  EXPECT_EQ(client->history().check(), "");
  // Both replicas applied the same writes.
  auto replicas = kvc.replicas();
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0]->store(), replicas[1]->store());
}

TEST_F(KvIntegrationTest, TwoPartitionsServeDisjointKeys) {
  KvCluster kvc;
  kvc.add_partition(1);
  kvc.add_partition(1);
  kvc.publish();

  KvClient::Config cfg;
  cfg.threads = 8;
  cfg.key_space = 1000;
  cfg.value_bytes = 64;
  auto* client = kvc.add_client(cfg);
  client->start();

  kvc.cluster().run_for(5 * kSecond);
  client->stop();
  kvc.cluster().run_for(1 * kSecond);

  EXPECT_GT(client->completed(), 400u);
  auto* r1 = kvc.replicas()[0];
  auto* r2 = kvc.replicas()[1];
  EXPECT_GT(r1->executed(), 0u);
  EXPECT_GT(r2->executed(), 0u);
  // Disjoint ownership: no key stored on both replicas.
  for (const auto& [key, value] : r1->store()) {
    EXPECT_FALSE(r2->store().get(key)) << key << " stored on both partitions";
  }
}

TEST_F(KvIntegrationTest, GetRangeSpansPartitionsConsistently) {
  KvCluster kvc;
  kvc.add_partition(1);
  kvc.add_partition(1);
  kvc.add_global_stream();
  kvc.wire_peers();
  kvc.publish();
  // Let the dynamic subscriptions to the global stream settle.
  ASSERT_TRUE(run_until(
      kvc.cluster(),
      [&] {
        for (auto* r : kvc.replicas()) {
          if (!r->merger().subscribed_to(kvc.global_stream())) return false;
        }
        return true;
      },
      15 * kSecond));

  KvClient::Config cfg;
  cfg.threads = 6;
  cfg.key_space = 500;
  cfg.value_bytes = 32;
  cfg.getrange_ratio = 0.1;
  cfg.range_span = 100;
  auto* client = kvc.add_client(cfg);
  client->start();

  kvc.cluster().run_for(8 * kSecond);
  client->stop();
  kvc.cluster().run_for(1 * kSecond);

  EXPECT_GT(client->completed(), 200u);
  // Multi-partition commands were executed by every replica (delivered
  // via the shared stream).
  for (auto* r : kvc.replicas()) {
    EXPECT_GT(r->executed(), 0u);
  }
}

TEST_F(KvIntegrationTest, LateGetRangeSignalsAreNotKept) {
  // Two replicas per partition: the first signal from the other
  // partition unblocks a getrange, and its second replica's signal
  // arrives after the getrange executed. Nothing may wait for it.
  KvCluster kvc;
  kvc.add_partition(2);
  kvc.add_partition(2);
  kvc.add_global_stream();
  kvc.wire_peers();
  kvc.publish();
  ASSERT_TRUE(run_until(
      kvc.cluster(),
      [&] {
        for (auto* r : kvc.replicas()) {
          if (!r->merger().subscribed_to(kvc.global_stream())) return false;
        }
        return true;
      },
      15 * kSecond));

  KvClient::Config cfg;
  cfg.threads = 4;
  cfg.key_space = 200;
  cfg.value_bytes = 32;
  cfg.getrange_ratio = 0.5;
  cfg.range_span = 20;
  auto* client = kvc.add_client(cfg);
  client->start();
  kvc.cluster().run_for(4 * kSecond);
  client->stop();
  kvc.cluster().run_for(1 * kSecond);

  EXPECT_GT(client->completed(), 100u);
  ASSERT_EQ(kvc.replicas().size(), 4u);
  for (auto* r : kvc.replicas()) {
    EXPECT_GT(r->executed(), 0u) << r->name();
    EXPECT_EQ(r->pending_signals(), 0u) << r->name();
  }
}

TEST_F(KvIntegrationTest, OnlineSplitKeepsServiceAvailable) {
  // The Fig. 4 scenario at test scale: split one partition in two under
  // load; throughput continues, each replica ends up owning half.
  KvCluster kvc;
  // The online monitors must stay silent across the split: the group
  // re-label and snapshot-join paths (de)register members correctly.
  kvc.cluster().sim().monitors().set_enabled(true);
  const uint32_t p1 = kvc.add_partition(2);
  kvc.publish();

  KvClient::Config cfg;
  cfg.threads = 16;
  cfg.key_space = 2000;
  cfg.value_bytes = 128;
  cfg.record_history = true;
  auto* client = kvc.add_client(cfg);
  client->start();
  kvc.cluster().run_for(3 * kSecond);
  const uint64_t before_split = client->completed();
  EXPECT_GT(before_split, 200u);

  auto* mover = kvc.replicas_of(p1)[1];
  kvc.begin_split(p1, mover, /*with_prepare=*/true);
  ASSERT_TRUE(run_until(kvc.cluster(),
                        [&] { return mover->merger().subscriptions().size() == 2; },
                        10 * kSecond));
  const uint32_t p2 = kvc.complete_split(p1, mover);
  ASSERT_TRUE(run_until(kvc.cluster(),
                        [&] { return mover->merger().subscriptions().size() == 1; },
                        10 * kSecond));
  EXPECT_EQ(mover->partition_id(), p2);
  mover->purge_unowned();

  kvc.cluster().run_for(4 * kSecond);
  client->stop();
  kvc.cluster().run_for(2 * kSecond);

  EXPECT_GT(client->completed(), before_split + 500)
      << "service must keep completing operations after the split";
  // Both partitions now serve traffic.
  auto* keeper = kvc.replicas_of(p1)[0];
  EXPECT_GT(keeper->executed(), 0u);
  EXPECT_GT(mover->executed(), 0u);
  // Linearizability holds across the split.
  EXPECT_EQ(client->history().check(), "");
  // The mover discarded commands addressed to the wrong partition
  // (client raced the map change) — the paper's §VII-D behaviour —
  // OR the flip was clean; both are acceptable, but ownership must be
  // disjoint now.
  for (const auto& [key, value] : mover->store()) {
    EXPECT_TRUE(mover->owns(key_hash(key)));
  }
  EXPECT_EQ(kvc.cluster().sim().monitors().violation_count(), 0u)
      << kvc.cluster().sim().monitors().summary();
}

TEST_F(KvIntegrationTest, WrongPartitionCommandsAreDiscardedAndRetried) {
  KvCluster kvc;
  const uint32_t p1 = kvc.add_partition(2);
  kvc.publish();

  KvClient::Config cfg;
  cfg.threads = 8;
  cfg.key_space = 1000;
  cfg.value_bytes = 64;
  cfg.retry_timeout = 800 * kMillisecond;
  auto* client = kvc.add_client(cfg);
  client->start();
  kvc.cluster().run_for(3 * kSecond);

  // Split WITHOUT publishing the map first: clients keep routing to the
  // old partition for a while, so the keeper discards upper-half keys.
  auto* mover = kvc.replicas_of(p1)[1];
  kvc.begin_split(p1, mover, true);
  ASSERT_TRUE(run_until(kvc.cluster(),
                        [&] { return mover->merger().subscriptions().size() == 2; },
                        10 * kSecond));
  kvc.complete_split(p1, mover);
  kvc.cluster().run_for(5 * kSecond);
  client->stop();
  kvc.cluster().run_for(1 * kSecond);

  auto* keeper = kvc.replicas_of(p1)[0];
  EXPECT_GT(keeper->discarded_wrong_partition() + mover->discarded_wrong_partition(), 0u)
      << "some in-flight commands must have hit the wrong partition";
  EXPECT_GT(client->retries(), 0u) << "clients re-send after the timeout";
  EXPECT_GT(client->completed(), 0u);
}

TEST_F(KvIntegrationTest, SnapshotTransfersStore) {
  KvCluster kvc;
  kvc.add_partition(2);
  kvc.publish();

  KvClient::Config cfg;
  cfg.threads = 4;
  cfg.key_space = 200;
  cfg.value_bytes = 64;
  auto* client = kvc.add_client(cfg);
  client->start();
  kvc.cluster().run_for(3 * kSecond);
  client->stop();
  kvc.cluster().run_for(1 * kSecond);

  auto* donor = kvc.replicas()[0];
  ASSERT_GT(donor->store().size(), 0u);

  // Simulate the state-transfer payload round-trip.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& [key, value] : donor->store()) pairs.emplace_back(key, value.bytes);
  kv::SnapshotReplyMsg snapshot;
  snapshot.store = std::make_shared<const std::string>(kv::encode_pairs(pairs));
  for (auto s : donor->merger().subscriptions()) {
    snapshot.stream_positions.emplace_back(s, donor->merger().queue(s).next_index());
  }

  elastic::Replica::Config base;
  base.group = 99;  // fresh group; will subscribe explicitly
  base.params = kvc.cluster().options().params;
  kv::KvReplica::KvConfig kvcfg;
  kvcfg.partition_id = donor->partition_id();
  auto* joiner =
      kvc.cluster().spawn<kv::KvReplica>("joiner", &kvc.cluster().directory(), base, kvcfg);
  joiner->install_snapshot(snapshot);
  EXPECT_EQ(joiner->store(), donor->store());
}

}  // namespace
}  // namespace epx
