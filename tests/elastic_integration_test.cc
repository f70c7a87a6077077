// Integration tests of dynamic subscription on a running simulated
// cluster: subscribe/unsubscribe/prepare under client load, recovery of
// new-stream backlog, and acyclic ordering across groups.
#include <gtest/gtest.h>

#include "harness/trace_flags.h"
#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::LoadClient;

class ElasticIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }

  /// Runs the simulation in 100 ms steps until `pred` holds or `limit`
  /// virtual time elapses; returns true if the predicate held.
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

TEST_F(ElasticIntegrationTest, DynamicSubscribeUnderLoad) {
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg1;
  cfg1.threads = 3;
  cfg1.payload_bytes = 512;
  cfg1.route = [s1] { return s1; };
  auto* c1 = cluster.spawn<LoadClient>("client1", &cluster.directory(), cfg1);
  LoadClient::Config cfg2 = cfg1;
  cfg2.route = [s2] { return s2; };
  auto* c2 = cluster.spawn<LoadClient>("client2", &cluster.directory(), cfg2);

  c1->start();
  c2->start();
  cluster.run_for(2 * kSecond);

  // Nothing from S2 is delivered before the subscription.
  const uint64_t before = r1->delivered();
  EXPECT_GT(before, 0u);

  cluster.controller().subscribe(/*group=*/1, s2, /*via=*/s1);
  ASSERT_TRUE(run_until(
      cluster, [&] { return r1->merger().subscribed_to(s2) && r2->merger().subscribed_to(s2); },
      10 * kSecond))
      << "subscription must complete";

  cluster.run_for(3 * kSecond);
  c1->stop();
  c2->stop();
  cluster.run_for(2 * kSecond);

  EXPECT_GT(c2->completed(), 0u) << "S2 commands must now be delivered and answered";
  EXPECT_EQ(r1->delivered(), r2->delivered());
  EXPECT_TRUE(testing::monitors_clean(cluster));
}

// The ring is the control-plane history a flight-recorder dump shows.
// Traced runs record per-command stages as spans, so a long traced run
// must not flush the subscribe and its merge point out of the ring.
TEST_F(ElasticIntegrationTest, TracedRunKeepsMergePointInRing) {
  Cluster cluster;
  harness::TraceFlags flags;
  flags.out = "traced_merge_point.json";  // arms tracing; nothing is written
  flags.enable(cluster.sim());
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 12;
  cfg.payload_bytes = 64;
  cfg.route = [s1, s2, i = 0]() mutable { return ++i % 2 == 0 ? s1 : s2; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(kSecond);

  cluster.controller().subscribe(1, s2, s1);
  ASSERT_TRUE(
      run_until(cluster, [&] { return r1->merger().subscribed_to(s2); }, 10 * kSecond));
  const uint64_t delivered_at_merge = r1->delivered();
  cluster.run_for(5 * kSecond);
  ASSERT_GT(r1->delivered() - delivered_at_merge, cluster.sim().trace().capacity())
      << "enough deliveries to overflow a ring that recorded one event each";

  EXPECT_EQ(cluster.sim().trace().events(obs::TraceKind::kMergePoint).size(), 1u);
  EXPECT_EQ(cluster.sim().trace().events(obs::TraceKind::kSubscribeBegin).size(), 1u);
  EXPECT_EQ(cluster.sim().trace().dropped(), 0u);
  EXPECT_TRUE(testing::monitors_clean(cluster));
}

// Fig. 4's shape: after the subscribe one stream stays idle, and its
// coordinator pads it with a skip run every skip_interval (100 per
// virtual second at 10 ms) while the loaded stream pads its own
// shortfall. More skip runs than the ring holds follow the merge point;
// folded per stream, they must not flush it.
TEST_F(ElasticIntegrationTest, TracedIdleStreamKeepsMergePointInRing) {
  Cluster cluster;
  harness::TraceFlags flags;
  flags.out = "traced_idle_stream.json";  // arms tracing; nothing is written
  flags.enable(cluster.sim());
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 64;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(kSecond);

  cluster.controller().subscribe(1, s2, s1);
  ASSERT_TRUE(
      run_until(cluster, [&] { return r1->merger().subscribed_to(s2); }, 10 * kSecond));
  const Tick idle = 45 * kSecond;
  cluster.run_for(idle);
  const obs::Trace& trace = cluster.sim().trace();
  ASSERT_GT(static_cast<size_t>(idle / cluster.options().params.skip_interval),
            trace.capacity())
      << "the idle stream alone pads more skip runs than the ring holds";

  EXPECT_EQ(trace.events(obs::TraceKind::kMergePoint).size(), 1u);
  EXPECT_EQ(trace.events(obs::TraceKind::kSubscribeBegin).size(), 1u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_GT(client->completed(), 0u);
  EXPECT_TRUE(testing::monitors_clean(cluster));
}

TEST_F(ElasticIntegrationTest, SubscribeRecoversBacklog) {
  // S2 accumulates traffic long before the group subscribes; the new
  // learner must recover the backlog from the acceptors and the merger
  // must discard everything before the merge point.
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg2;
  cfg2.threads = 2;
  cfg2.payload_bytes = 256;
  cfg2.route = [s2] { return s2; };
  auto* backlog_client = cluster.spawn<LoadClient>("backlog", &cluster.directory(), cfg2);
  backlog_client->start();
  cluster.run_for(3 * kSecond);
  backlog_client->stop();
  const uint64_t backlog = backlog_client->completed();
  // Replies only come from replicas; nobody subscribes to S2 yet.
  EXPECT_EQ(backlog, 0u);

  cluster.controller().subscribe(1, s2, s1);
  ASSERT_TRUE(run_until(cluster, [&] { return r1->merger().subscribed_to(s2); },
                        15 * kSecond));
  // Backlog values ordered before the merge point were discarded, not
  // delivered (paper Fig. 2 semantics).
  EXPECT_GT(r1->merger().discarded(), 0u);
}

TEST_F(ElasticIntegrationTest, UnsubscribeStopsDelivery) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1, s2});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 256;
  cfg.route = [s2] { return s2; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);
  EXPECT_GT(client->completed(), 0u);

  cluster.controller().unsubscribe(1, s2, s1);
  ASSERT_TRUE(run_until(cluster, [&] { return !r1->merger().subscribed_to(s2); },
                        10 * kSecond));

  // Delivery of S2 traffic stops: completions stall from here on.
  cluster.run_for(1 * kSecond);
  const uint64_t after_unsub = client->completed();
  cluster.run_for(3 * kSecond);
  EXPECT_LE(client->completed() - after_unsub, 2u)
      << "at most in-flight commands complete after unsubscription";
  EXPECT_EQ(r1->merger().subscriptions(), (std::vector<paxos::StreamId>{s1}));
}

TEST_F(ElasticIntegrationTest, PrepareHintMakesSubscriptionNonBlocking) {
  // Measure the merged-delivery stall around the subscription point,
  // with and without the prepare hint, on identical backlogs.
  auto run_scenario = [&](bool use_prepare) -> Tick {
    Cluster cluster;
    const auto s1 = cluster.add_stream();
    const auto s2 = cluster.add_stream();
    auto* r1 = cluster.add_replica(1, {s1});

    Tick last_delivery = 0;
    Tick max_gap = 0;
    bool tracking = false;
    r1->set_delivery_listener([&](net::NodeId, const paxos::Command&, paxos::StreamId) {
      const Tick t = cluster.sim().now();
      if (tracking && last_delivery > 0) max_gap = std::max(max_gap, t - last_delivery);
      last_delivery = t;
    });

    LoadClient::Config cfg1;
    cfg1.threads = 3;
    cfg1.payload_bytes = 512;
    cfg1.route = [s1] { return s1; };
    auto* c1 = cluster.spawn<LoadClient>("client1", &cluster.directory(), cfg1);
    LoadClient::Config cfg2 = cfg1;
    cfg2.route = [s2] { return s2; };
    auto* c2 = cluster.spawn<LoadClient>("client2", &cluster.directory(), cfg2);
    c1->start();
    c2->start();  // builds S2 backlog that the new learner must recover

    cluster.run_for(5 * kSecond);
    if (use_prepare) {
      cluster.controller().prepare(1, s2, s1);
      cluster.run_for(3 * kSecond);  // background catch-up completes
    }
    tracking = true;
    cluster.controller().subscribe(1, s2, s1);
    const bool subscribed = run_until(
        cluster, [&] { return r1->merger().subscribed_to(s2); }, 20 * kSecond);
    EXPECT_TRUE(subscribed);
    c1->stop();
    c2->stop();
    return max_gap;
  };

  const Tick gap_without = run_scenario(false);
  const Tick gap_with = run_scenario(true);
  // Without the hint the merger stalls while scanning the recovered
  // backlog; with it the learner is already caught up.
  EXPECT_GT(gap_without, gap_with) << "prepare hint must shrink the stall";
  EXPECT_LT(gap_with, 200 * kMillisecond);
}

TEST_F(ElasticIntegrationTest, ReconfigurationSwitchesStreams) {
  // Paper §VII-E: replace the acceptor set by subscribing to a new
  // stream and unsubscribing from the old one, under load.
  Cluster cluster;
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  // Clients route to whatever the "current" stream is.
  paxos::StreamId active_stream = s1;
  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 1024;
  cfg.route = [&active_stream] { return active_stream; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);

  const auto s2 = cluster.add_stream();
  cluster.controller().prepare(1, s2, s1);
  cluster.run_for(1 * kSecond);
  cluster.controller().subscribe(1, s2, s1);
  ASSERT_TRUE(run_until(
      cluster, [&] { return r1->merger().subscribed_to(s2) && r2->merger().subscribed_to(s2); },
      10 * kSecond));
  active_stream = s2;  // clients switch to the new stream
  cluster.controller().unsubscribe(1, s1, s2);
  ASSERT_TRUE(run_until(
      cluster,
      [&] { return !r1->merger().subscribed_to(s1) && !r2->merger().subscribed_to(s1); },
      10 * kSecond));

  const uint64_t before = client->completed();
  cluster.run_for(3 * kSecond);
  client->stop();
  cluster.run_for(1 * kSecond);

  EXPECT_GT(client->completed(), before + 50) << "system keeps running on the new stream";
  EXPECT_EQ(r1->delivered(), r2->delivered());
  EXPECT_TRUE(testing::monitors_clean(cluster));
  EXPECT_EQ(r1->merger().subscriptions(), (std::vector<paxos::StreamId>{s2}));
}

TEST_F(ElasticIntegrationTest, TelemetryScrapesSurviveSubscriptionChurn) {
  // The full elastic scenario with the telemetry plane on: the scrape
  // agents ride through subscribe, unsubscribe and a replica crash
  // without dangling instruments or partial samples, and the protocol's
  // own guarantees are untouched by the extra scrape traffic.
  ClusterOptions options;
  options.telemetry.enabled = true;
  Cluster cluster(options);
  cluster.sim().monitors().set_enabled(true);
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 256;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);

  cluster.controller().subscribe(1, s2, s1);
  ASSERT_TRUE(run_until(
      cluster,
      [&] { return r1->merger().subscribed_to(s2) && r2->merger().subscribed_to(s2); },
      10 * kSecond));
  cluster.run_for(1 * kSecond);
  // Unsubscribe destroys both replicas' S2 learners between two scrapes.
  cluster.controller().unsubscribe(1, s2, s1);
  ASSERT_TRUE(run_until(cluster, [&] { return !r1->merger().subscribed_to(s2); },
                        10 * kSecond));
  r2->crash();
  cluster.run_for(500 * kMillisecond);
  r2->restart();
  cluster.run_for(2 * kSecond);
  client->stop();
  cluster.run_for(1 * kSecond);

  // Ordering still holds with scrape traffic sharing the network.
  EXPECT_TRUE(testing::monitors_clean(cluster));

  // Every sample in the store is complete: windows are well-formed and
  // each series carries the per-process baseline instruments alongside
  // the role ones that churned.
  const obs::TimeSeriesStore& store = cluster.monitor_service()->store();
  EXPECT_GT(store.samples_ingested(), 0u);
  for (const auto& [key, by_node] : store.all()) {
    for (const auto& [node, series] : by_node) {
      for (size_t i = 1; i < series.points.size(); ++i) {
        EXPECT_GT(series.points[i].t, series.points[i - 1].t)
            << key << " node " << node;
      }
    }
  }
  // The destroyed S2 learners' series survive, frozen after the churn.
  const std::string dead_key = obs::metric_key(
      "learner.delivered", {{"node", r1->name()}, {"stream", std::to_string(s2)}});
  const obs::TsSeries* dead = store.series(r1->id(), dead_key);
  ASSERT_NE(dead, nullptr);
  EXPECT_DOUBLE_EQ(dead->points.back().v0, 0.0);
  // And the crashed replica resumed scraping after restart.
  const obs::TsSeries* crashed = store.series(
      r2->id(), obs::metric_key("cpu.busy", {{"node", r2->name()}}));
  ASSERT_NE(crashed, nullptr);
  EXPECT_GT(crashed->points.back().t, cluster.now() - kSecond);
}

}  // namespace
}  // namespace epx
