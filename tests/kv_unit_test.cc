// KV-layer unit tests: partition map arithmetic, the store against a
// std::map reference, op payload handling, replica ownership/discard/
// purge behaviour, getrange scans and signal-gated execution.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/kv_cluster.h"
#include "kvstore/kv_client.h"
#include "kvstore/kv_store.h"
#include "kvstore/partition_map.h"
#include "kvstore/signal_table.h"
#include "tests/test_util.h"
#include "util/rng.h"

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

// -------------------------------------------------------------- KvStore --

using kv::KvStore;
using Reference = std::map<std::string, std::string>;

std::string test_key(size_t index) { return kv::KvClient::key_name(index); }
size_t index_of(std::string_view key) { return std::stoull(std::string(key.substr(3))); }

// A deliberately clumped hash for the store's table: a quarter of the
// keys keep their real hash, a quarter start at the last slot of any
// table up to 2^16 slots (their probe runs wrap past the end), a quarter
// start at slot 0, and the last quarter share the whole 64-bit hash of
// the wrapping key two indexes below. Home slots are the top bits of the
// hash's Fibonacci product, so the hashes are chosen by their product.
uint64_t clumped_hash(size_t index) {
  const uint64_t real = key_hash(test_key(index));
  switch (index % 4) {
    case 0:
      return real;
    case 1:
      return testing::hash_with_product(real | uint64_t{0xffff} << 48);
    case 2:
      return testing::hash_with_product(real >> 16);
    default:
      return clumped_hash(index - 2);
  }
}

// A put's value inside a larger payload, as a command payload holds it.
struct Put {
  KvStore::Payload owner;
  std::string_view bytes;
};

Put make_put(std::string_view value) {
  std::string payload;
  payload.push_back('<');
  payload.append(value);
  payload.push_back('>');
  auto owner = std::make_shared<const std::string>(std::move(payload));
  return Put{owner, std::string_view(*owner).substr(1, value.size())};
}

void put(KvStore& store, const std::string& key, std::string_view value) {
  const Put p = make_put(value);
  store.put(key, clumped_hash(index_of(key)), p.bytes, p.owner);
}

void expect_same(const KvStore& store, const Reference& ref, size_t universe) {
  ASSERT_EQ(store.size(), ref.size());
  for (size_t k = 0; k < universe; ++k) {
    const std::string key = test_key(k);
    const auto want = ref.find(key);
    const std::optional<std::string_view> got = store.get(key, clumped_hash(k));
    if (want == ref.end()) {
      EXPECT_FALSE(got) << key;
    } else {
      ASSERT_TRUE(got) << key;
      EXPECT_EQ(*got, want->second) << key;
    }
  }
  EXPECT_TRUE(std::equal(store.begin(), store.end(), ref.begin(), ref.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second.bytes == b.second;
                         }));
}

TEST(KvStoreTest, MatchesStdMapReference) {
  constexpr size_t kUniverse = 400;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    KvStore store;
    Reference ref;
    for (int step = 1; step <= 4000; ++step) {
      const std::string key = test_key(rng.uniform(kUniverse));
      const double dice = rng.uniform_double();
      if (dice < 0.55) {  // a new key or an overwrite
        const std::string value = std::to_string(rng.next());
        put(store, key, value);
        ref[key] = value;
      } else if (dice < 0.80) {
        const auto want = ref.find(key);
        const std::optional<std::string_view> got =
            store.get(key, clumped_hash(index_of(key)));
        ASSERT_EQ(got.has_value(), want != ref.end()) << key;
        if (got) {
          EXPECT_EQ(*got, want->second) << key;
        }
      } else if (dice < 0.85) {  // erase one residue class of the indexes
        const size_t m = 2 + rng.uniform(6);
        const size_t r = rng.uniform(m);
        const auto pick = [&](std::string_view k) { return index_of(k) % m == r; };
        size_t want = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (pick(it->first)) {
            it = ref.erase(it);
            ++want;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(store.erase_if(pick), want);
      } else if (dice < 0.95) {
        std::optional<std::string> hi;
        if (!rng.chance(0.2)) hi = test_key(rng.uniform(kUniverse + 1));
        std::vector<std::pair<std::string, std::string>> want;
        for (auto it = ref.lower_bound(key); it != ref.end() && (!hi || it->first < *hi);
             ++it) {
          want.push_back(*it);
        }
        const net::SharedBody range = store.range(key, hi);
        EXPECT_EQ(range.str(), kv::encode_pairs(want));
        EXPECT_EQ(range.pair_count(), want.size());
      } else {  // the same pairs, inserted in reverse from other buffers
        KvStore copy;
        for (auto it = ref.rbegin(); it != ref.rend(); ++it) {
          put(copy, it->first, it->second);
        }
        EXPECT_TRUE(copy == store);
        if (!ref.empty()) {
          std::string changed = ref.begin()->second;
          changed.push_back('!');
          put(copy, ref.begin()->first, changed);
          EXPECT_FALSE(copy == store);
        }
      }
      if (step % 500 == 0) expect_same(store, ref, kUniverse);
    }
  }
}

TEST(KvStoreTest, DistinctKeysWithOneHashStayDistinct) {
  KvStore store;
  const Put a = make_put("A");
  const Put b = make_put("B");
  store.put("alpha", 42, a.bytes, a.owner);
  store.put("beta", 42, b.bytes, b.owner);
  EXPECT_EQ(store.get("alpha", 42), "A");
  EXPECT_EQ(store.get("beta", 42), "B");
  EXPECT_FALSE(store.get("gamma", 42));
  EXPECT_EQ(store.erase_if([](std::string_view k) { return k == "alpha"; }), 1u);
  EXPECT_FALSE(store.get("alpha", 42));
  EXPECT_EQ(store.get("beta", 42), "B");
}

TEST(KvStoreTest, WrappedProbeRunShiftsBackOnErase) {
  // Hashes whose Fibonacci product starts with 0xf start at the last
  // slot of a 16-slot table, so the run wraps to slots 0, 1, ...;
  // "home0" starts at slot 0 behind it.
  KvStore store;
  const Put v = make_put("v");
  const auto wrapped_hash = [](uint64_t i) {
    return testing::hash_with_product(uint64_t{0xf} << 60 | i << 8);
  };
  const uint64_t home0_hash = testing::hash_with_product(0x100000);
  const char* const wrapped[] = {"w0", "w1", "w2", "w3", "w4"};
  for (uint64_t i = 0; i < 5; ++i) store.put(wrapped[i], wrapped_hash(i), v.bytes, v.owner);
  store.put("home0", home0_hash, v.bytes, v.owner);
  EXPECT_EQ(store.erase_if([](std::string_view k) { return k == "w0" || k == "w2"; }), 2u);
  EXPECT_FALSE(store.get("w0", wrapped_hash(0)));
  EXPECT_FALSE(store.get("w2", wrapped_hash(2)));
  EXPECT_EQ(store.get("w1", wrapped_hash(1)), "v");
  EXPECT_EQ(store.get("w3", wrapped_hash(3)), "v");
  EXPECT_EQ(store.get("w4", wrapped_hash(4)), "v");
  EXPECT_EQ(store.get("home0", home0_hash), "v");
  EXPECT_EQ(store.size(), 4u);
}

TEST(KvStoreTest, GrowsAndKeepsEveryKey) {
  KvStore store;
  Reference ref;
  constexpr size_t kKeys = 5000;
  for (size_t k = 0; k < kKeys; ++k) {
    put(store, test_key(k), test_key(k));
    ref[test_key(k)] = test_key(k);
  }
  expect_same(store, ref, kKeys + 10);
  // The key-hash entry point finds what the replica's put stored.
  const std::string key = test_key(4);  // index 4: its real hash
  EXPECT_EQ(store.get(key), key);
}

TEST(KvStoreTest, ClientKeyNameMatchesSnprintf) {
  for (const size_t index : {size_t{0}, size_t{123}, size_t{9'999'999'999},
                             size_t{10'000'000'000}, std::numeric_limits<size_t>::max()}) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%010zu", index);
    EXPECT_EQ(kv::KvClient::key_name(index), buf) << index;
  }
}

// --------------------------------------------------------- SignalTable --

TEST(SignalTableTest, MatchesAReferenceThroughEvictionsAndErases) {
  // Few distinct ids and partitions, so records share probe runs and
  // repeat; a capacity of 64 makes the bound evict often.
  constexpr size_t kCap = 64;
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    kv::SignalTable table(kCap);
    std::map<std::pair<uint64_t, uint32_t>, uint64_t> ref;  // record -> stamp
    uint64_t stamp = 0;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t id = paxos::make_command_id(1 + rng.uniform(3), 1 + rng.uniform(60));
      const auto partition = static_cast<uint32_t>(rng.uniform(4));
      if (rng.chance(0.7)) {
        table.insert(id, partition);
        if (ref.count({id, partition}) == 0) {
          if (ref.size() == kCap) {
            std::erase_if(ref, [&](const auto& r) { return r.second <= stamp - kCap / 2; });
          }
          ref[{id, partition}] = ++stamp;
        }
      } else {
        table.erase(id);
        std::erase_if(ref, [&](const auto& r) { return r.first.first == id; });
      }
      ASSERT_EQ(table.size(), ref.size());
      for (uint32_t p = 0; p < 4; ++p) {
        ASSERT_EQ(table.contains(id, p), ref.count({id, p}) == 1) << id << " " << p;
      }
    }
    for (const auto& [record, record_stamp] : ref) {
      EXPECT_TRUE(table.contains(record.first, record.second));
    }
  }
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

/// `reply` with `content` as an owned string: the form a decoder gives.
multicast::ReplyMsg owned_reply(const multicast::ReplyMsg& reply, std::string content) {
  multicast::ReplyMsg owned(reply.command_id, reply.status);
  owned.shard = reply.shard;
  owned.payload = std::make_shared<const std::string>(std::move(content));
  return owned;
}

std::string hex_of(const net::Message& msg) {
  std::string out;
  for (const uint8_t b : net::MessageCodec::instance().encode(msg)) {
    out += "0123456789abcdef"[b >> 4];
    out += "0123456789abcdef"[b & 0xf];
  }
  return out;
}

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
  ASSERT_EQ(reply.payload.pair_count(), 4u);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"key2", "v2"}, {"key3", "v3"}, {"key4", "v4"}, {"key5", "v5"}};
  EXPECT_EQ(kv::decode_pairs(reply.payload.str()), expected);
  EXPECT_EQ(reply.payload.str(), kv::encode_pairs(expected));
  // On the wire it is the reply that owns encode_pairs()' string.
  EXPECT_EQ(net::MessageCodec::instance().encode(reply),
            net::MessageCodec::instance().encode(
                owned_reply(reply, kv::encode_pairs(expected))));
}

TEST_F(KvReplicaTest, RepliesOutliveTheEntriesTheyWereReadFrom) {
  // Absorbed values are owned by the store alone, so once it lets go of
  // them only the replies keep them alive (ASan reports a dangling view).
  replica->absorb_store(kv::encode_pairs({{"key1", std::string(300, 'a')},
                                          {"key2", std::string(200, 'b')},
                                          {"key3", "c"}}),
                        /*overwrite=*/true);
  kv::KvOp get;
  get.kind = OpKind::kGet;
  get.key = "key2";
  propose(get.encode());
  kv::KvOp range;
  range.kind = OpKind::kGetRange;
  range.key = "key1";
  range.end_key = "key3";
  propose(range.encode());
  ASSERT_EQ(sink->replies.size(), 2u);
  const std::string get_wire = hex_of(sink->reply(0));
  const std::string range_wire = hex_of(sink->reply(1));

  replica->absorb_store(kv::encode_pairs({{"key1", "new"}, {"key2", "new"}}),
                        /*overwrite=*/true);
  replica->set_ownership(p1, 0, 0);
  ASSERT_EQ(replica->purge_unowned(), 3u);
  ASSERT_EQ(replica->store().size(), 0u);

  EXPECT_EQ(sink->reply(0).payload.flat(), std::string(200, 'b'));
  EXPECT_EQ(kv::decode_pairs(sink->reply(1).payload.str()),
            (std::vector<std::pair<std::string, std::string>>{
                {"key1", std::string(300, 'a')}, {"key2", std::string(200, 'b')}}));
  EXPECT_EQ(hex_of(sink->reply(0)), get_wire);
  EXPECT_EQ(hex_of(sink->reply(1)), range_wire);
  EXPECT_EQ(get_wire, hex_of(owned_reply(sink->reply(0), std::string(200, 'b'))));
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
