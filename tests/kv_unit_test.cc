// KV-layer unit tests: partition map arithmetic, op payload handling,
// replica ownership/discard/purge behaviour, getrange scans and
// signal-gated execution.
#include <gtest/gtest.h>

#include "harness/kv_cluster.h"
#include "kvstore/partition_map.h"
#include "tests/test_util.h"

namespace epx {
namespace {

using kv::OpKind;
using kv::PartitionEntry;
using kv::PartitionMap;

// -------------------------------------------------------- PartitionMap --

PartitionMap two_way_map() {
  PartitionEntry lower{1, 0, ~0ULL / 2, 11};
  PartitionEntry upper{2, ~0ULL / 2 + 1, ~0ULL, 22};
  return PartitionMap({lower, upper});
}

TEST(PartitionMapTest, LookupRoutesByHash) {
  const PartitionMap map = two_way_map();
  const auto* low = map.lookup_hash(0);
  const auto* high = map.lookup_hash(~0ULL);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  EXPECT_EQ(low->partition_id, 1u);
  EXPECT_EQ(high->partition_id, 2u);
  EXPECT_EQ(low->stream, 11u);
  EXPECT_EQ(high->stream, 22u);
}

TEST(PartitionMapTest, LookupCoversBoundary) {
  const PartitionMap map = two_way_map();
  EXPECT_EQ(map.lookup_hash(~0ULL / 2)->partition_id, 1u);
  EXPECT_EQ(map.lookup_hash(~0ULL / 2 + 1)->partition_id, 2u);
}

TEST(PartitionMapTest, SplitHalvesRange) {
  PartitionMap map({PartitionEntry{1, 0, ~0ULL, 11}});
  const uint32_t new_id = map.split(1, 33);
  ASSERT_EQ(map.partition_count(), 2u);
  EXPECT_EQ(new_id, 2u);
  const auto* lower = map.lookup_hash(0);
  const auto* upper = map.lookup_hash(~0ULL);
  EXPECT_EQ(lower->partition_id, 1u);
  EXPECT_EQ(upper->partition_id, new_id);
  EXPECT_EQ(upper->stream, 33u);
  // The two halves tile the space exactly.
  EXPECT_EQ(lower->hash_hi + 1, upper->hash_lo);
}

TEST(PartitionMapTest, SplitUnknownPartitionFails) {
  PartitionMap map({PartitionEntry{1, 0, ~0ULL, 11}});
  EXPECT_EQ(map.split(9, 33), 0u);
  EXPECT_EQ(map.partition_count(), 1u);
}

TEST(PartitionMapTest, MergeAdjacentRanges) {
  PartitionMap map = two_way_map();
  EXPECT_TRUE(map.merge(1, 2));
  ASSERT_EQ(map.partition_count(), 1u);
  const auto* only = map.lookup_hash(~0ULL);
  EXPECT_EQ(only->partition_id, 1u);
  EXPECT_EQ(only->hash_lo, 0u);
  EXPECT_EQ(only->hash_hi, ~0ULL);
}

TEST(PartitionMapTest, MergeNonAdjacentFails) {
  PartitionEntry a{1, 0, 99, 11};
  PartitionEntry b{2, 200, 300, 22};
  PartitionMap map({a, b});
  EXPECT_FALSE(map.merge(1, 2));
  EXPECT_EQ(map.partition_count(), 2u);
}

TEST(PartitionMapTest, SerializationRoundTrip) {
  const PartitionMap map = two_way_map();
  const PartitionMap copy = PartitionMap::deserialize(map.serialize());
  ASSERT_EQ(copy.partition_count(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(copy.entries()[i].partition_id, map.entries()[i].partition_id);
    EXPECT_EQ(copy.entries()[i].hash_lo, map.entries()[i].hash_lo);
    EXPECT_EQ(copy.entries()[i].hash_hi, map.entries()[i].hash_hi);
    EXPECT_EQ(copy.entries()[i].stream, map.entries()[i].stream);
  }
}

TEST(PartitionMapTest, SplitThenMergeRestoresOriginal) {
  PartitionMap map({PartitionEntry{1, 0, ~0ULL, 11}});
  const uint32_t new_id = map.split(1, 33);
  EXPECT_TRUE(map.merge(1, new_id));
  EXPECT_EQ(map.partition_count(), 1u);
  EXPECT_EQ(map.lookup_hash(123)->hash_hi, ~0ULL);
}

// ------------------------------------------------------------ KvReplica --

// Keeps every KV reply addressed to it.
class ReplySink : public sim::Process {
 public:
  ReplySink(sim::Simulation* sim, sim::Network* net, net::NodeId id)
      : Process(sim, net, id, "reply-sink") {}

  std::vector<net::MessagePtr> replies;

  const multicast::ReplyMsg& reply(size_t i) const {
    return static_cast<const multicast::ReplyMsg&>(*replies.at(i));
  }

 protected:
  void on_message(net::NodeId, const net::MessagePtr& msg) override {
    if (msg->type() == net::MsgType::kKvReply) replies.push_back(msg);
  }
};

class KvReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::init_logging();
    p1 = kvc.add_partition(1);
    kvc.publish();
    replica = kvc.replicas_of(p1)[0];
    sink = kvc.cluster().spawn<ReplySink>();
  }

  /// Orders `payload` through the partition's stream, replies going to
  /// the sink, and waits for execution.
  void propose(std::string payload) {
    paxos::Command cmd;
    cmd.id = paxos::make_command_id(500, seq_++);
    cmd.client = sink->id();
    cmd.payload = std::make_shared<const std::string>(std::move(payload));
    last_payload = cmd.payload;
    const auto stream = kvc.stream_of(p1);
    kvc.cluster().controller().send(
        kvc.cluster().directory().get(stream).coordinator,
        net::make_message<paxos::ClientProposeMsg>(stream, cmd));
    kvc.cluster().run_for(100 * kMillisecond);
  }

  static std::string put_payload(const std::string& key, const std::string& value) {
    kv::KvOp op;
    op.kind = OpKind::kPut;
    op.key = key;
    op.value = value;
    return op.encode();
  }

  /// Runs a put through the real stream and waits for execution.
  void ordered_put(const std::string& key, const std::string& value) {
    propose(put_payload(key, value));
  }

  harness::KvCluster kvc;
  uint32_t p1 = 0;
  kv::KvReplica* replica = nullptr;
  ReplySink* sink = nullptr;
  std::shared_ptr<const std::string> last_payload;
  uint32_t seq_ = 1;
};

TEST_F(KvReplicaTest, ExecutesOwnedPut) {
  ordered_put("alpha", "1");
  EXPECT_TRUE(replica->store().get("alpha"));
  EXPECT_EQ(replica->executed(), 1u);
}

/// True when `bytes` lies inside `payload`'s buffer.
bool inside(std::string_view bytes, const std::string& payload) {
  const std::less_equal<const char*> le;
  return le(payload.data(), bytes.data()) &&
         le(bytes.data() + bytes.size(), payload.data() + payload.size());
}

TEST_F(KvReplicaTest, PutSharesTheCommandPayload) {
  const std::string first(64, 'a');
  ordered_put("alpha", first);
  const auto first_payload = last_payload;
  ASSERT_EQ(replica->store().get("alpha"), first);
  EXPECT_TRUE(inside(*replica->store().get("alpha"), *first_payload));
  const std::string second(64, 'b');
  ordered_put("alpha", second);
  ASSERT_EQ(replica->store().get("alpha"), second);
  EXPECT_TRUE(inside(*replica->store().get("alpha"), *last_payload));
}

TEST_F(KvReplicaTest, UnknownKindIsRejectedWithStatus) {
  std::string payload = put_payload("alpha", "1");
  payload[0] = 9;  // no such OpKind
  propose(payload);
  EXPECT_EQ(replica->store().size(), 0u);
  EXPECT_EQ(replica->executed(), 0u);
  ASSERT_EQ(sink->replies.size(), 1u)
      << "the client must hear back, or it re-sends forever";
  EXPECT_NE(sink->reply(0).status, 0u);
}

TEST_F(KvReplicaTest, TruncatedPayloadIsRejectedWithStatus) {
  propose(put_payload("alpha", "1").substr(0, 3));
  EXPECT_EQ(replica->store().size(), 0u);
  EXPECT_EQ(replica->executed(), 0u);
  ASSERT_EQ(sink->replies.size(), 1u);
  EXPECT_NE(sink->reply(0).status, 0u);
}

TEST_F(KvReplicaTest, DiscardsUnownedKeys) {
  // Shrink ownership to nothing-owns-this-key and verify the discard.
  replica->set_ownership(p1, 0, 0);
  ordered_put("alpha", "1");
  EXPECT_FALSE(replica->store().get("alpha"));
  EXPECT_EQ(replica->discarded_wrong_partition(), 1u);
}

TEST_F(KvReplicaTest, PurgeRemovesExactlyUnownedKeys) {
  for (int i = 0; i < 50; ++i) ordered_put(testing::numbered("k", i), "v");
  ASSERT_EQ(replica->store().size(), 50u);
  // Keep only the lower half of the hash space.
  replica->set_ownership(p1, 0, ~0ULL / 2);
  const size_t purged = replica->purge_unowned();
  EXPECT_EQ(replica->store().size() + purged, 50u);
  for (const auto& [key, value] : replica->store()) {
    EXPECT_TRUE(replica->owns(key_hash(key)));
  }
  EXPECT_GT(purged, 5u);  // hashes spread over both halves
}

TEST_F(KvReplicaTest, GetRangeScansLexicographicInterval) {
  for (int i = 0; i < 10; ++i) {
    ordered_put(testing::numbered("key", i), testing::numbered("v", i));
  }
  // Execute a getrange directly through the delivery path.
  paxos::Command cmd;
  cmd.id = paxos::make_command_id(500, 999);
  kv::KvOp op;
  op.kind = OpKind::kGetRange;
  op.key = "key2";
  op.end_key = "key6";
  cmd.payload = std::make_shared<const std::string>(op.encode());
  const auto stream = kvc.stream_of(p1);
  kvc.cluster().controller().send(
      kvc.cluster().directory().get(stream).coordinator,
      net::make_message<paxos::ClientProposeMsg>(stream, cmd));
  kvc.cluster().run_for(200 * kMillisecond);
  // No peers configured -> executes immediately; 4 keys in [key2, key6).
  EXPECT_GE(replica->executed(), 11u);
}

TEST_F(KvReplicaTest, GetRangeReplyHoldsTheIntervalInKeyOrder) {
  for (int i = 0; i < 10; ++i) {
    ordered_put(testing::numbered("key", i), testing::numbered("v", i));
  }
  kv::KvOp op;
  op.kind = OpKind::kGetRange;
  op.key = "key2";
  op.end_key = "key6";
  propose(op.encode());
  ASSERT_EQ(sink->replies.size(), 11u);  // 10 puts, then the getrange
  const multicast::ReplyMsg& reply = sink->reply(10);
  EXPECT_EQ(reply.status, 0u);
  ASSERT_NE(reply.payload, nullptr);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"key2", "v2"}, {"key3", "v3"}, {"key4", "v4"}, {"key5", "v5"}};
  EXPECT_EQ(kv::decode_pairs(*reply.payload), expected);
  EXPECT_EQ(*reply.payload, kv::encode_pairs(expected));
}

TEST_F(KvReplicaTest, AbsorbStorePreservesNewerLocalValues) {
  ordered_put("shared", "local-new");
  const std::string blob =
      kv::encode_pairs({{"shared", "remote-old"}, {"other", "remote"}});
  replica->absorb_store(blob, /*overwrite=*/false);
  EXPECT_EQ(replica->store().get("shared"), "local-new");
  EXPECT_EQ(replica->store().get("other"), "remote");
  replica->absorb_store(blob, /*overwrite=*/true);
  EXPECT_EQ(replica->store().get("shared"), "remote-old");
}

}  // namespace
}  // namespace epx
