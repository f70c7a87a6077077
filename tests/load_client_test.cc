// Workload-driver tests: closed-loop turnover, latency windows, retry
// accounting and re-routing, think-time pacing.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::LoadClient;

class LoadClientTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_F(LoadClientTest, ClosedLoopKeepsOneCommandPerThread) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  cluster.add_replica(1, {s1});
  LoadClient::Config cfg;
  cfg.threads = 3;
  cfg.payload_bytes = 64;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);
  // Completions are bounded by threads / RTT and latency is recorded for
  // each of them.
  EXPECT_GT(client->completed(), 100u);
  EXPECT_EQ(client->latency().count(), client->completed());
  EXPECT_GT(client->latency_timer().window_count(), 0u);
}

TEST_F(LoadClientTest, ThinkTimeLowersOfferedLoad) {
  auto run_with_think = [](Tick think) {
    Cluster cluster;
    const auto s1 = cluster.add_stream();
    cluster.add_replica(1, {s1});
    LoadClient::Config cfg;
    cfg.threads = 4;
    cfg.payload_bytes = 64;
    cfg.think_time = think;
    cfg.route = [s1] { return s1; };
    auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
    client->start();
    cluster.run_for(5 * kSecond);
    return client->completed();
  };
  const uint64_t eager = run_with_think(0);
  const uint64_t lazy = run_with_think(50 * kMillisecond);
  EXPECT_GT(eager, 2 * lazy);
  // 4 threads at ~(50ms + RTT) per op over 5s.
  EXPECT_NEAR(static_cast<double>(lazy), 4.0 * 5.0 / 0.054, 60.0);
}

TEST_F(LoadClientTest, RetriesRerouteThroughFreshDecision) {
  // Route to a dead stream first; after the retry timeout the route
  // lambda redirects to a live one — commands eventually complete.
  Cluster cluster;
  const auto dead = cluster.add_stream_after(3600 * kSecond);  // never up
  const auto live = cluster.add_stream();
  cluster.add_replica(1, {live});

  paxos::StreamId target = dead;
  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 64;
  cfg.retry_timeout = 300 * kMillisecond;
  cfg.route = [&target] { return target; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(1 * kSecond);
  EXPECT_EQ(client->completed(), 0u);
  target = live;
  cluster.run_for(2 * kSecond);
  EXPECT_GT(client->retries(), 0u);
  EXPECT_GT(client->completed(), 100u);
}

TEST_F(LoadClientTest, RetryFiresAtEachTimeoutWhileUnanswered) {
  // Nothing ever answers: each thread re-sends at exactly sent_at + k x
  // retry_timeout.
  Cluster cluster;
  const auto dead = cluster.add_stream_after(3600 * kSecond);  // never up
  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 64;
  cfg.retry_timeout = 300 * kMillisecond;
  cfg.route = [dead] { return dead; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(299 * kMillisecond);
  EXPECT_EQ(client->retries(), 0u);
  cluster.run_for(2 * kMillisecond);
  EXPECT_EQ(client->retries(), 2u) << "one retry per thread at 300 ms";
  cluster.run_for(699 * kMillisecond);
  EXPECT_EQ(client->retries(), 6u) << "and again at 600 and 900 ms";
  EXPECT_EQ(client->completed(), 0u);
}

TEST_F(LoadClientTest, AnsweredOpsQueueNoTimerTasks) {
  // Every command is answered long before its retry is due, so no
  // per-command timer task lands in the client's inbox: with one timer
  // per command, all 64 first commands' timers would fire at 1 s.
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  cluster.add_replica(1, {s1});
  LoadClient::Config cfg;
  cfg.threads = 64;
  cfg.payload_bytes = 64;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(3 * kSecond);
  EXPECT_GT(client->completed(), 1000u);
  EXPECT_EQ(client->retries(), 0u);
  const obs::Gauge* depth = cluster.sim().metrics().find_gauge("inbox.depth{node=client}");
  ASSERT_NE(depth, nullptr);
  EXPECT_LE(depth->max(), 2.0);
}

TEST_F(LoadClientTest, StopHaltsIssuance) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  cluster.add_replica(1, {s1});
  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 64;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(1 * kSecond);
  client->stop();
  const uint64_t at_stop = client->completed();
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(client->completed(), at_stop);
}

}  // namespace
}  // namespace epx
