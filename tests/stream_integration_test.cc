// End-to-end integration of one and two Paxos streams: clients propose,
// coordinators batch and pipeline through the acceptor ring, learners
// feed the deterministic merger, replicas deliver and reply.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::LoadClient;

class StreamIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_F(StreamIntegrationTest, SingleStreamDeliversAllCommands) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(/*group=*/1, {s1});
  auto* r2 = cluster.add_replica(/*group=*/1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 512;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(5 * kSecond);
  client->stop();
  cluster.run_for(1 * kSecond);

  EXPECT_GT(client->completed(), 100u) << "closed loop should turn over";
  EXPECT_EQ(r1->delivered(), r2->delivered());
  EXPECT_TRUE(testing::monitors_clean(cluster))
      << "same group must deliver identical sequences";
  EXPECT_GE(r1->delivered(), client->completed());
}

TEST_F(StreamIntegrationTest, TwoStreamsMergeDeterministically) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1, s2});
  auto* r2 = cluster.add_replica(1, {s1, s2});

  LoadClient::Config cfg1;
  cfg1.threads = 3;
  cfg1.payload_bytes = 256;
  cfg1.route = [s1] { return s1; };
  auto* c1 = cluster.spawn<LoadClient>("client1", &cluster.directory(), cfg1);

  LoadClient::Config cfg2 = cfg1;
  cfg2.route = [s2] { return s2; };
  auto* c2 = cluster.spawn<LoadClient>("client2", &cluster.directory(), cfg2);

  c1->start();
  c2->start();
  cluster.run_for(5 * kSecond);
  c1->stop();
  c2->stop();
  cluster.run_for(1 * kSecond);

  EXPECT_GT(c1->completed(), 50u);
  EXPECT_GT(c2->completed(), 50u);
  EXPECT_EQ(r1->delivered(), r2->delivered());
  EXPECT_TRUE(testing::monitors_clean(cluster))
      << "deterministic merge must give identical merged sequences";
}

TEST_F(StreamIntegrationTest, SkipPacingKeepsIdleStreamMoving) {
  // One busy stream, one completely idle stream: without skips the
  // merger would stall forever waiting for the idle stream's slots.
  Cluster cluster;
  const auto busy = cluster.add_stream();
  const auto idle = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {busy, idle});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 128;
  cfg.route = [busy] { return busy; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(5 * kSecond);
  EXPECT_GT(client->completed(), 100u)
      << "skip pacing must prevent the idle stream from blocking delivery";
  EXPECT_GT(r1->delivered(), 0u);
}

TEST_F(StreamIntegrationTest, ProvisionedStreamStartsAfterDelay) {
  // Heat-AutoScaling model (paper §VI: bringing up a new stream's VMs
  // takes ~60 s): the stream exists in the directory immediately but
  // only starts ordering after the provisioning delay.
  Cluster cluster;
  const auto s1 = cluster.add_stream_after(2 * kSecond);
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 128;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(1900 * kMillisecond);
  EXPECT_EQ(r1->delivered(), 0u) << "nothing decides before the VMs are up";
  cluster.run_for(3 * kSecond);
  EXPECT_GT(r1->delivered(), 100u) << "stream serves normally once provisioned";
}

TEST_F(StreamIntegrationTest, DecisionsSurviveMessageLoss) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  cluster.net().set_loss_probability(0.02);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 512;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(8 * kSecond);
  client->stop();
  cluster.run_for(2 * kSecond);

  EXPECT_GT(client->completed(), 50u);
  EXPECT_EQ(r1->delivered(), r2->delivered());
  EXPECT_TRUE(testing::monitors_clean(cluster));
}

TEST_F(StreamIntegrationTest, Figure1ArchitectureSharedStream) {
  // Paper Fig. 1: replicas in G1 subscribe to streams S1 and S2;
  // replicas in G2 subscribe to S2 and S3. Single-partition traffic goes
  // to S1/S3, cross-partition traffic to the shared S2. All four
  // replicas must order the shared commands consistently with their own
  // partition's commands (acyclic pairwise order).
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();  // shared
  const auto s3 = cluster.add_stream();
  cluster.add_replica(1, {s1, s2});
  cluster.add_replica(1, {s1, s2});
  cluster.add_replica(2, {s2, s3});
  cluster.add_replica(2, {s2, s3});

  std::vector<harness::LoadClient*> clients;
  for (auto stream : {s1, s2, s3}) {
    LoadClient::Config cfg;
    cfg.threads = 3;
    cfg.payload_bytes = 256;
    cfg.route = [stream] { return stream; };
    clients.push_back(
        cluster.spawn<LoadClient>(testing::numbered("c", stream), &cluster.directory(), cfg));
    clients.back()->start();
  }
  cluster.run_for(5 * kSecond);
  for (auto* c : clients) c->stop();
  cluster.run_for(2 * kSecond);

  EXPECT_GT(clients[1]->completed(), 100u) << "shared stream must be answered";
  EXPECT_TRUE(testing::monitors_clean(cluster))
      << "shared-stream commands must be ordered consistently across groups";
}

}  // namespace
}  // namespace epx
