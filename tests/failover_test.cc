// Failure-injection tests: coordinator failover via standby takeover
// (phase 1), acceptor crashes with stable storage, deciding-acceptor
// restarts, and elastic subscriptions under message loss.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::LoadClient;

class FailoverTest : public ::testing::Test {
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

TEST_F(FailoverTest, StandbyTakesOverAfterCoordinatorCrash) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  auto* active = cluster.coordinator(s1);
  auto* standby = cluster.add_standby_coordinator(s1);
  ASSERT_NE(standby, nullptr);

  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 512;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(2 * kSecond);
  const uint64_t before = client->completed();
  EXPECT_GT(before, 0u);

  active->crash();
  ASSERT_TRUE(run_until(cluster, [&] { return standby->is_active(); }, 10 * kSecond))
      << "standby must take over leadership";
  // Clients learn the new coordinator (in production via the registry).
  cluster.directory().set_coordinator(s1, standby->id());

  cluster.run_for(4 * kSecond);
  client->stop();
  cluster.run_for(1 * kSecond);

  EXPECT_GT(client->completed(), before + 20) << "stream must make progress again";
  EXPECT_EQ(r1->delivered(), r2->delivered());
  EXPECT_TRUE(testing::monitors_clean(cluster)) << "takeover must not reorder or duplicate";
}

TEST_F(FailoverTest, TakeoverAdoptsAcceptedValues) {
  // Kill the leader right after heavy proposing; the standby must adopt
  // in-flight accepted values via phase 1 rather than losing them.
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  auto* active = cluster.coordinator(s1);
  auto* standby = cluster.add_standby_coordinator(s1);
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 8;
  cfg.payload_bytes = 256;
  cfg.retry_timeout = 700 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(1 * kSecond);
  active->crash();
  cluster.directory().set_coordinator(s1, standby->id());
  ASSERT_TRUE(run_until(cluster, [&] { return standby->is_active(); }, 10 * kSecond));
  cluster.run_for(3 * kSecond);
  client->stop();
  cluster.run_for(1 * kSecond);

  // Every command the client saw answered was delivered exactly once.
  EXPECT_GT(client->completed(), 0u);
  EXPECT_GE(r1->delivered(), client->completed());
}

TEST_F(FailoverTest, MinorityAcceptorCrashIsTransparent) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  (void)r1;

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 512;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_for(2 * kSecond);
  // Crash the ring tail: quorum 2/3 still reachable through the ring
  // head and the deciding acceptor.
  auto acceptors = cluster.acceptors(s1);
  ASSERT_EQ(acceptors.size(), 3u);
  acceptors[2]->crash();

  const uint64_t before = client->completed();
  cluster.run_for(3 * kSecond);
  EXPECT_GT(client->completed(), before + 50)
      << "a minority acceptor crash must not stop the stream";
}

TEST_F(FailoverTest, DecidingAcceptorRestartKeepsDelivering) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 512;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);

  // The quorum-completing acceptor (position 1 in a 3-ring) fans out
  // decisions; restart it. Under the default diskless policy its log and
  // learner registrations are both lost — learners re-join via gap
  // repair and the coordinator re-decides via retransmission.
  auto acceptors = cluster.acceptors(s1);
  acceptors[1]->crash();
  cluster.run_for(200 * kMillisecond);
  acceptors[1]->restart();

  const uint64_t before = r1->delivered();
  cluster.run_for(4 * kSecond);
  client->stop();
  EXPECT_GT(r1->delivered(), before + 50)
      << "delivery must resume after the deciding acceptor restarts";
}

TEST_F(FailoverTest, SubscriptionCompletesUnderMessageLoss) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  cluster.net().set_loss_probability(0.02);
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 3;
  cfg.payload_bytes = 256;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* c1 = cluster.spawn<LoadClient>("client1", &cluster.directory(), cfg);
  c1->start();
  cluster.run_for(2 * kSecond);

  cluster.controller().subscribe(1, s2, s1);
  ASSERT_TRUE(run_until(
      cluster,
      [&] { return r1->merger().subscribed_to(s2) && r2->merger().subscribed_to(s2); },
      20 * kSecond))
      << "subscription must complete despite 2% loss (controller re-sends)";

  LoadClient::Config cfg2 = cfg;
  cfg2.route = [s2] { return s2; };
  auto* c2 = cluster.spawn<LoadClient>("client2", &cluster.directory(), cfg2);
  c2->start();
  cluster.run_for(3 * kSecond);
  c1->stop();
  c2->stop();
  cluster.run_for(2 * kSecond);

  EXPECT_GT(c2->completed(), 0u);
  EXPECT_TRUE(testing::monitors_clean(cluster));
}

TEST_F(FailoverTest, CoordinatorCrashDuringSubscription) {
  // Crash the NEW stream's coordinator while the group is subscribing to
  // it; the standby takes over and the subscription still completes.
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* standby2 = cluster.add_standby_coordinator(s2);
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 256;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(1 * kSecond);

  cluster.controller().subscribe(1, s2, s1);
  cluster.run_for(20 * kMillisecond);  // subscription mid-flight
  cluster.coordinator(s2)->crash();
  cluster.directory().set_coordinator(s2, standby2->id());

  ASSERT_TRUE(run_until(cluster, [&] { return r1->merger().subscribed_to(s2); },
                        30 * kSecond))
      << "subscription must survive a coordinator failover on the new stream";
  client->stop();
}

}  // namespace
}  // namespace epx
