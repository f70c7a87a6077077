// Recovery-path tests for write-ahead acceptors (DESIGN.md §14): journal
// replay in a full cluster, trim-horizon persistence via checkpoint
// records, a learner catch-up racing an acceptor restart mid-chunk, and
// a serial-vs-parallel engine differential over a durable crash/restart
// schedule. The whole suite also runs on the parallel engine via the
// recovery_test_threads4 ctest entry (EPX_FORCE_THREADS=4).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "paxos/acceptor.h"
#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::LoadClient;
using net::MessagePtr;
using net::NodeId;
using paxos::AcceptMsg;
using paxos::Acceptor;
using paxos::Ballot;
using paxos::Command;
using paxos::Proposal;
using paxos::RecoverReplyMsg;

class CaptureProcess : public sim::Process {
 public:
  CaptureProcess(sim::Simulation* sim, sim::Network* net, NodeId id)
      : Process(sim, net, id, "capture" + std::to_string(id)) {}

  std::vector<MessagePtr> messages;

  template <typename T>
  std::vector<const T*> of_type(net::MsgType type) const {
    std::vector<const T*> out;
    for (const auto& m : messages) {
      if (m->type() == type) out.push_back(static_cast<const T*>(m.get()));
    }
    return out;
  }

 protected:
  void on_message(NodeId, const MessagePtr& msg) override { messages.push_back(msg); }
};

Proposal make_value(uint64_t id) {
  Proposal p;
  p.first_slot = id;
  Command c;
  c.id = id;
  c.payload_size = 16;
  p.commands.push_back(std::move(c));
  return p;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::init_logging();
    net.set_default_link({0, 0});
    sender = std::make_unique<CaptureProcess>(&sim, &net, 20);
  }

  std::unique_ptr<Acceptor> make_durable_acceptor(Acceptor::Config cfg) {
    cfg.stream = 1;
    cfg.storage = paxos::StoragePolicy::kDurable;
    auto acc = std::make_unique<Acceptor>(&sim, &net, 10, "acc", cfg);
    acc->set_quorum(2);
    return acc;
  }

  void decide(Acceptor& acc, paxos::InstanceId instance) {
    auto m = std::make_shared<AcceptMsg>();
    m->stream = 1;
    m->ballot = {1, 2};
    m->instance = instance;
    m->value = paxos::make_proposal(make_value(instance));
    m->accept_count = 1;  // quorum 2: this vote decides
    net.send(sender->id(), acc.id(), m, 0);
  }

  template <typename Pred>
  bool run_until(Cluster& cluster, Pred pred, Tick limit) {
    const Tick deadline = cluster.now() + limit;
    while (cluster.now() < deadline) {
      if (pred()) return true;
      cluster.run_for(100 * kMillisecond);
    }
    return pred();
  }

  sim::Simulation sim;
  sim::Network net{&sim, 1};
  std::unique_ptr<CaptureProcess> sender;
};

TEST_F(RecoveryTest, TrimHorizonSurvivesRestartAndGatesRecovery) {
  auto acc = make_durable_acceptor({});
  for (paxos::InstanceId i = 0; i < 10; ++i) decide(*acc, i);
  sim.run_to_completion();
  net.send(sender->id(), acc->id(), net::make_message<paxos::TrimRequestMsg>(1, 6), 0);
  sim.run_to_completion();  // checkpoint record durable, journal compacted
  ASSERT_EQ(acc->trim_horizon(), 6u);

  acc->crash();
  acc->restart();

  // The checkpoint carried the horizon through the crash: the replayed
  // acceptor still refuses to serve the trimmed prefix.
  EXPECT_EQ(acc->trim_horizon(), 6u);
  EXPECT_FALSE(acc->has_decided(3));
  EXPECT_TRUE(acc->has_decided(7));

  net.send(sender->id(), acc->id(),
           net::make_message<paxos::RecoverRequestMsg>(1, 0, 100), 0);
  sim.run_to_completion();
  auto replies = sender->of_type<RecoverReplyMsg>(net::MsgType::kRecoverReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0]->trim_horizon, 6u);
  ASSERT_EQ(replies[0]->entries.size(), 4u);  // instances 6..9 only
  EXPECT_EQ(replies[0]->entries.front().first, 6u);  // (instance, value) pairs
}

TEST_F(RecoveryTest, CatchUpRacesAcceptorRestartMidChunk) {
  // A learner's RecoverRequest lands while the acceptor has un-flushed
  // journal records: the recovery reply queues behind the durability
  // barrier, the acceptor dies before the fsync completes, and the
  // barrier dies with it — no stale reply may escape. The learner's
  // retry against the replayed acceptor must then see exactly the
  // durable prefix.
  Acceptor::Config cfg;
  cfg.device.fsync_latency = 10 * kMillisecond;  // keeps the flush in flight
  cfg.params.recover_chunk = 8;
  auto acc = make_durable_acceptor(cfg);

  for (paxos::InstanceId i = 0; i < 20; ++i) decide(*acc, i);
  sim.run_for(100 * kMillisecond);  // instances 0..19 durable
  ASSERT_TRUE(acc->has_decided(19));

  // One more accept opens a new (pending) journal record, then the
  // catch-up request arrives mid-chunk behind it.
  decide(*acc, 20);
  net.send(sender->id(), acc->id(),
           net::make_message<paxos::RecoverRequestMsg>(1, 0, 21), 0);
  sim.run_for(1 * kMillisecond);  // both processed; fsync still pending
  EXPECT_TRUE(sender->of_type<RecoverReplyMsg>(net::MsgType::kRecoverReply).empty());

  acc->crash();
  acc->restart();  // replay: instances 0..19 return, 20 died un-flushed
  sim.run_for(100 * kMillisecond);
  EXPECT_TRUE(sender->of_type<RecoverReplyMsg>(net::MsgType::kRecoverReply).empty())
      << "a barrier queued before the crash must not fire after it";
  EXPECT_TRUE(acc->has_decided(19));
  EXPECT_FALSE(acc->has_decided(20));

  // The learner retries; the replayed acceptor serves the first chunk.
  net.send(sender->id(), acc->id(),
           net::make_message<paxos::RecoverRequestMsg>(1, 0, 21), 0);
  sim.run_to_completion();
  auto replies = sender->of_type<RecoverReplyMsg>(net::MsgType::kRecoverReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0]->entries.size(), 8u);  // one recover_chunk
  EXPECT_EQ(replies[0]->decided_watermark, 20u);
}

TEST_F(RecoveryTest, ClusterRestartReplaysJournalAndKeepsOrder) {
  ClusterOptions options;
  options.storage = paxos::StoragePolicy::kDurable;
  Cluster cluster(options);
  cluster.sim().monitors().set_enabled(true);
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
  cluster.run_for(2 * kSecond);

  // Restart the quorum-completing acceptor: the durable journal must
  // carry its decided log through the outage.
  auto* victim = cluster.acceptors(s1)[1];
  const paxos::InstanceId probe = victim->decided_contiguous() - 1;
  victim->crash();
  cluster.run_for(300 * kMillisecond);
  victim->restart();
  EXPECT_TRUE(victim->has_decided(probe)) << "journal replay must restore the log";
  ASSERT_NE(victim->wal_store(), nullptr);
  EXPECT_GT(victim->wal_store()->journal_records(), 0u);

  const uint64_t before = r1->delivered();
  ASSERT_TRUE(run_until(
      cluster, [&] { return r1->delivered() > before + 100; }, 10 * kSecond))
      << "delivery must resume after the restart";
  client->stop();
  cluster.run_for(1 * kSecond);

  EXPECT_EQ(r1->delivered(), r2->delivered());
  EXPECT_TRUE(testing::monitors_clean(cluster)) << "replay must not reorder or duplicate";
}

// --- serial vs parallel engine differential ------------------------------

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// One durable cluster with a mid-run acceptor crash/restart; returns an
/// order-sensitive delivery-trace hash combined per replica in node-id
/// order (the same contract determinism_test pins for diskless runs).
uint64_t run_durable_trace(size_t threads) {
  ClusterOptions options;
  options.threads = threads;
  options.storage = paxos::StoragePolicy::kDurable;
  Cluster cluster(options);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  std::array<uint64_t, 64> node_hash{};
  for (auto* r : {r1, r2}) {
    r->set_delivery_listener(
        [&node_hash](NodeId node, const Command& cmd, paxos::StreamId stream) {
          uint64_t& h = node_hash[node];
          h = mix(mix(h, stream), cmd.id);
        });
  }

  LoadClient::Config cfg;
  cfg.threads = 4;
  cfg.payload_bytes = 512;
  cfg.retry_timeout = 500 * kMillisecond;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  auto* victim = cluster.acceptors(s1)[1];
  cluster.sim().schedule_at(1 * kSecond, [victim] { victim->crash(); });
  cluster.sim().schedule_at(1300 * kMillisecond, [victim] { victim->restart(); });

  cluster.run_for(4 * kSecond);
  client->stop();
  cluster.run_for(1 * kSecond);

  uint64_t trace = 0;
  for (size_t node = 0; node < node_hash.size(); ++node) {
    if (node_hash[node] == 0) continue;
    trace = mix(mix(trace, node), node_hash[node]);
  }
  EXPECT_GT(r1->delivered(), 0u);
  return trace;
}

TEST_F(RecoveryTest, DurableRestartIdenticalAcrossEngines) {
  // Journal flushes are node-local host timers, so the storage subsystem
  // must never perturb the parallel engine's schedule: the same durable
  // crash/restart run is bit-identical on 1 thread and on 4 shards.
  const uint64_t serial = run_durable_trace(1);
  const uint64_t sharded = run_durable_trace(4);
  EXPECT_EQ(serial, sharded);
}

}  // namespace
}  // namespace epx
