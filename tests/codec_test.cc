// Wire-codec tests: primitive round-trips, every protocol message
// round-trips through the registry, body_size() always matches the
// encoded byte count (the bandwidth model depends on it), and malformed
// buffers are rejected.
#include <gtest/gtest.h>

#include "kvstore/kv_messages.h"
#include "kvstore/kv_op.h"
#include "kvstore/partition_map.h"
#include "multicast/messages.h"
#include "net/buffer.h"
#include "net/message.h"
#include "paxos/messages.h"
#include "registry/messages.h"

namespace epx {
namespace {

using net::MessageCodec;
using net::Reader;
using net::Writer;

class CodecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    paxos::register_paxos_messages();
    multicast::register_multicast_messages();
    registry::register_registry_messages();
    kv::register_kv_messages();
  }
};

// --------------------------------------------------------- primitives --

TEST_F(CodecTest, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  Reader r({reinterpret_cast<const char*>(w.data().data()), w.size()});
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST_F(CodecTest, VarintRoundTripBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     0xffffffffULL, ~0ULL}) {
    Writer w;
    w.varint(v);
    EXPECT_EQ(w.size(), Writer::varint_size(v));
    Reader r({reinterpret_cast<const char*>(w.data().data()), w.size()});
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST_F(CodecTest, BytesRoundTrip) {
  Writer w;
  w.bytes("hello");
  w.bytes("");
  w.bytes(std::string(1000, 'x'));
  Reader r({reinterpret_cast<const char*>(w.data().data()), w.size()});
  EXPECT_EQ(r.bytes(), "hello");
  EXPECT_EQ(r.bytes(), "");
  EXPECT_EQ(r.bytes(), std::string(1000, 'x'));
  EXPECT_TRUE(r.at_end());
}

TEST_F(CodecTest, TruncatedReadFails) {
  Writer w;
  w.u64(7);
  Reader r({reinterpret_cast<const char*>(w.data().data()), 4});
  r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.status().is_ok());
}

TEST_F(CodecTest, OverlongVarintFails) {
  std::vector<uint8_t> bad(11, 0x80);
  Reader r(bad.data(), bad.size());
  r.varint();
  EXPECT_FALSE(r.ok());
}

// --------------------------------------------------- message registry --

// Encodes, decodes, re-encodes and verifies the advertised body size.
void round_trip(const net::Message& msg) {
  auto& codec = MessageCodec::instance();
  ASSERT_TRUE(codec.has(msg.type())) << net::msg_type_name(msg.type());

  // body_size must match the actual encoding (bandwidth model contract).
  Writer body;
  msg.encode(body);
  EXPECT_EQ(body.size(), msg.body_size()) << net::msg_type_name(msg.type());

  const auto bytes = codec.encode(msg);
  auto decoded = codec.decode({reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value()->type(), msg.type());

  // Re-encoding the decoded message must be byte-identical.
  const auto bytes2 = codec.encode(*decoded.value());
  EXPECT_EQ(bytes, bytes2) << net::msg_type_name(msg.type());
}

paxos::Command sample_command() {
  paxos::Command c;
  c.kind = paxos::CommandKind::kApp;
  c.id = paxos::make_command_id(12, 34);
  c.client = 12;
  c.payload = std::make_shared<const std::string>("payload-bytes");
  return c;
}

TEST_F(CodecTest, CommandRoundTrip) {
  const paxos::Command c = sample_command();
  Writer w;
  net::encode_fields(c, w);
  EXPECT_EQ(w.size(), net::encoded_size(c));
  Reader r({reinterpret_cast<const char*>(w.data().data()), w.size()});
  paxos::Command d;
  net::decode_fields(d, r);
  EXPECT_EQ(d.id, c.id);
  EXPECT_EQ(d.client, c.client);
  EXPECT_EQ(*d.payload, *c.payload);
}

TEST_F(CodecTest, SyntheticPayloadMaterialisesZeros) {
  paxos::Command c;
  c.id = 9;
  c.payload_size = 64;  // no payload object
  Writer w;
  net::encode_fields(c, w);
  EXPECT_EQ(w.size(), net::encoded_size(c));
  Reader r({reinterpret_cast<const char*>(w.data().data()), w.size()});
  paxos::Command d;
  net::decode_fields(d, r);
  EXPECT_EQ(d.payload_bytes(), 64u);
}

TEST_F(CodecTest, ProposalRoundTrip) {
  paxos::Proposal p;
  p.first_slot = 1234;
  p.skip_slots = 7;
  p.commands.push_back(sample_command());
  p.commands.push_back(paxos::make_subscribe(77, 1, 2));
  Writer w;
  net::encode_fields(p, w);
  EXPECT_EQ(w.size(), net::encoded_size(p));
  Reader r({reinterpret_cast<const char*>(w.data().data()), w.size()});
  paxos::Proposal d;
  net::decode_fields(d, r);
  EXPECT_EQ(d.first_slot, 1234u);
  EXPECT_EQ(d.skip_slots, 7u);
  ASSERT_EQ(d.commands.size(), 2u);
  EXPECT_EQ(d.commands[1].kind, paxos::CommandKind::kSubscribe);
}

TEST_F(CodecTest, PaxosMessagesRoundTrip) {
  round_trip(paxos::ClientProposeMsg(3, sample_command()));
  round_trip(paxos::ProposeRejectMsg(3, 42, 9));
  round_trip(paxos::Phase1aMsg(3, {5, 2}, 100));

  paxos::Phase1bMsg p1b;
  p1b.stream = 3;
  p1b.ballot = {5, 2};
  p1b.promised = {6, 4};
  p1b.ok = true;
  p1b.acceptor = 8;
  paxos::AcceptedEntry entry;
  entry.instance = 10;
  entry.value_ballot = {4, 2};
  paxos::Proposal accepted_value;
  accepted_value.commands.push_back(sample_command());
  entry.value = paxos::make_proposal(std::move(accepted_value));
  entry.decided = true;
  p1b.accepted.push_back(entry);
  round_trip(p1b);

  paxos::AcceptMsg accept;
  accept.stream = 3;
  accept.ballot = {1, 2};
  accept.instance = 55;
  paxos::Proposal accept_value;
  accept_value.commands.push_back(sample_command());
  accept.value = paxos::make_proposal(std::move(accept_value));
  accept.accept_count = 1;
  round_trip(accept);

  paxos::Proposal value;
  value.commands.push_back(sample_command());
  round_trip(paxos::DecisionMsg(3, 55, value));
  round_trip(paxos::LearnerJoinMsg(3, 77));
  round_trip(paxos::LearnerLeaveMsg(3, 77));
  round_trip(paxos::RecoverRequestMsg(3, 10, 20));

  paxos::RecoverReplyMsg recover;
  recover.stream = 3;
  recover.trim_horizon = 5;
  recover.decided_watermark = 42;
  recover.entries.emplace_back(10, paxos::make_proposal(std::move(value)));
  round_trip(recover);

  round_trip(paxos::TrimRequestMsg(3, 99));
  round_trip(paxos::CoordHeartbeatMsg(3, {7, 1}, 1000));
}

TEST_F(CodecTest, MulticastReplyRoundTrip) {
  multicast::ReplyMsg reply(42, 0);
  reply.shard = 3;
  reply.payload = std::make_shared<const std::string>("value!");
  round_trip(reply);
  round_trip(multicast::ReplyMsg(43, 1));  // no payload

  // A get reply viewing a value inside a larger payload, and a getrange
  // reply whose pairs view their values: both decode to owned bytes.
  const auto stored = std::make_shared<const std::string>("key=value!;");
  multicast::ReplyMsg get(44, 0);
  get.payload = net::SharedBody(stored, std::string_view(*stored).substr(4, 6));
  round_trip(get);
  multicast::ReplyMsg range(45, 0);
  range.shard = 2;
  range.payload = net::SharedBody::pair_list();
  range.payload.add("k1", stored, std::string_view(*stored).substr(4, 5));
  range.payload.add("k2", stored, std::string_view(*stored).substr(0, 0));
  round_trip(range);
  multicast::ReplyMsg empty_range(46, 0);
  empty_range.payload = net::SharedBody::pair_list();
  round_trip(empty_range);
}

TEST_F(CodecTest, RegistryMessagesRoundTrip) {
  round_trip(registry::RegistrySetMsg("kv/partitions", "blob"));
  round_trip(registry::RegistryGetMsg(7, "kv/partitions"));
  registry::RegistryReplyMsg reply;
  reply.request_id = 7;
  reply.key = "kv/partitions";
  reply.value = "blob";
  reply.version = 3;
  reply.found = true;
  round_trip(reply);
  round_trip(registry::RegistryWatchMsg("kv/", 12));
  round_trip(registry::RegistryEventMsg("kv/partitions", "blob2", 4));
}

TEST_F(CodecTest, TelemetrySampleRoundTrip) {
  registry::TelemetrySampleMsg msg;
  msg.node = 9;
  msg.seq = 41;
  msg.window_start = 100 * kMillisecond;
  msg.window_end = 200 * kMillisecond;
  obs::TelemetryPoint counter;
  counter.key = obs::intern_key("replica.delivered{node=replica1}");
  counter.kind = obs::PointKind::kCounter;
  counter.v0 = 12;
  counter.v1 = 99;
  msg.points.push_back(counter);
  obs::TelemetryPoint gauge;
  gauge.key = obs::intern_key("inbox.depth{node=replica1}");
  gauge.kind = obs::PointKind::kGauge;
  gauge.v0 = 3;
  gauge.v1 = 17;
  msg.points.push_back(gauge);
  obs::TelemetryPoint timer;
  timer.key = obs::intern_key("client.latency{node=client}");
  timer.kind = obs::PointKind::kTimer;
  timer.v0 = 250;
  timer.v1 = 1.5e6;
  timer.v2 = 2.5e6;
  timer.v3 = 4.5e6;
  msg.points.push_back(timer);
  round_trip(msg);
  round_trip(registry::TelemetrySampleMsg());  // empty scrape window
}

TEST_F(CodecTest, KvMessagesRoundTrip) {
  round_trip(kv::KvSignalMsg(42, 3));
  round_trip(kv::SnapshotRequestMsg(9));
  kv::SnapshotReplyMsg snap;
  snap.request_id = 9;
  snap.store = std::make_shared<const std::string>(
      kv::encode_pairs({{"a", "1"}, {"b", "2"}}));
  snap.stream_positions = {{1, 100}, {2, 200}};
  round_trip(snap);
}

TEST_F(CodecTest, KvOpRoundTrip) {
  kv::KvOp op;
  op.kind = kv::OpKind::kGetRange;
  op.key = "key000";
  op.end_key = "key999";
  const std::string blob = op.encode();
  const Result<kv::KvOp> d = kv::KvOp::decode(blob);
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().kind, kv::OpKind::kGetRange);
  EXPECT_EQ(d.value().key, "key000");
  EXPECT_EQ(d.value().end_key, "key999");

  // A put payload keeps the Writer layout; a 1 KB value takes a
  // two-byte length.
  const std::string value(1024, 'x');
  kv::KvOp put;
  put.kind = kv::OpKind::kPut;
  put.key = "key0000000042";
  put.value = value;
  Writer w;
  w.u8(0);
  w.bytes(put.key);
  w.bytes(value);
  w.bytes("");
  const std::string put_blob = put.encode();
  EXPECT_EQ(put_blob,
            std::string(reinterpret_cast<const char*>(w.data().data()), w.size()));

  // Unknown kinds and truncated payloads do not decode.
  std::string bad_kind = put_blob;
  bad_kind[0] = 3;
  EXPECT_FALSE(kv::KvOp::decode(bad_kind).is_ok());
  EXPECT_FALSE(kv::KvOp::decode(std::string_view(put_blob).substr(0, 3)).is_ok());
}

TEST_F(CodecTest, PairListRoundTrip) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"k1", "v1"}, {"k2", std::string(500, 'z')}, {"", ""}};
  const auto decoded = kv::decode_pairs(kv::encode_pairs(pairs));
  EXPECT_EQ(decoded, pairs);
}

// -------------------------------------------------------- pinned bytes --

std::string hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

// Exact wire bytes (type tag + body) and body_size() of every message
// kind. round_trip() only checks that decode undoes encode, which still
// holds if a field's encoding changes on both sides; the bandwidth model
// charges these bytes, so they are pinned here.
TEST_F(CodecTest, WireBytesArePinned) {
  paxos::Command synthetic;
  synthetic.id = paxos::make_command_id(7, 300);
  synthetic.client = 7;
  synthetic.payload_size = 5;  // no payload object: encodes 5 zero bytes

  paxos::Proposal mixed;
  mixed.commands.push_back(sample_command());
  mixed.commands.push_back(paxos::make_subscribe(77, 1, 2));
  mixed.skip_slots = 7;
  mixed.first_slot = 1234;

  paxos::Phase1bMsg p1b;
  p1b.stream = 3;
  p1b.ballot = {5, 2};
  p1b.promised = {6, 4};
  p1b.ok = true;
  p1b.acceptor = 8;
  paxos::AcceptedEntry entry;
  entry.instance = 300;
  entry.value_ballot = {4, 2};
  entry.value = paxos::make_proposal(paxos::Proposal(mixed));
  entry.decided = true;
  p1b.accepted.push_back(entry);

  paxos::AcceptMsg accept;
  accept.stream = 3;
  accept.ballot = {1, 2};
  accept.instance = 55;
  paxos::Proposal accept_value;
  accept_value.commands.push_back(synthetic);
  accept_value.first_slot = 40;
  accept.value = paxos::make_proposal(std::move(accept_value));
  accept.accept_count = 2;

  paxos::Proposal skips;
  skips.skip_slots = 200;
  skips.first_slot = 90;
  paxos::RecoverReplyMsg recover;
  recover.stream = 3;
  recover.trim_horizon = 5;
  recover.decided_watermark = 420;
  recover.entries.emplace_back(10, paxos::make_proposal(std::move(skips)));
  recover.entries.emplace_back(11, paxos::empty_proposal());

  registry::RegistryReplyMsg reg_reply;
  reg_reply.request_id = 7;
  reg_reply.key = "kv/p";
  reg_reply.value = "blob";
  reg_reply.version = 3;
  reg_reply.found = true;

  registry::TelemetrySampleMsg sample;
  sample.node = 9;
  sample.seq = 41;
  sample.window_start = 100 * kMillisecond;
  sample.window_end = -1;
  obs::TelemetryPoint counter;
  counter.key = obs::intern_key("c{n=1}");
  counter.kind = obs::PointKind::kCounter;
  counter.v0 = 12;
  counter.v1 = 0.5;
  sample.points.push_back(counter);
  obs::TelemetryPoint timer;
  timer.key = obs::intern_key("t");
  timer.kind = obs::PointKind::kTimer;
  timer.v0 = 250;
  timer.v1 = 1.5e6;
  timer.v2 = -2.5;
  timer.v3 = 4.5e6;
  sample.points.push_back(timer);

  kv::SnapshotReplyMsg snap;
  snap.request_id = 9;
  snap.store = std::make_shared<const std::string>("st");
  snap.stream_positions = {{1, 100}, {2, 200}};
  snap.next_stream = 2;
  snap.clean = false;

  multicast::ReplyMsg reply(42, 1);
  reply.shard = 300;
  reply.payload = std::make_shared<const std::string>("ok");

  // The zero-copy forms must give the owned-string forms' bytes: a get
  // reply viewing "ok" inside a stored payload, and a getrange reply
  // beside the reply owning encode_pairs() of the same pairs.
  const auto stored = std::make_shared<const std::string>("<ok>1");
  multicast::ReplyMsg reply_view(42, 1);
  reply_view.shard = 300;
  reply_view.payload = net::SharedBody(stored, std::string_view(*stored).substr(1, 2));
  multicast::ReplyMsg reply_pairs(44, 0);
  reply_pairs.shard = 2;
  reply_pairs.payload = net::SharedBody::pair_list();
  reply_pairs.payload.add("a", stored, std::string_view(*stored).substr(4, 1));
  reply_pairs.payload.add("bc", stored, std::string_view(*stored).substr(1, 2));
  multicast::ReplyMsg reply_pairs_owned(44, 0);
  reply_pairs_owned.shard = 2;
  reply_pairs_owned.payload =
      std::make_shared<const std::string>(kv::encode_pairs({{"a", "1"}, {"bc", "ok"}}));

  const paxos::ClientProposeMsg propose_real(3, sample_command());
  const paxos::ClientProposeMsg propose_synthetic(4, synthetic);
  const paxos::ProposeRejectMsg reject(3, 42, 9);
  const paxos::Phase1aMsg p1a(3, {5, 2}, 100);
  const paxos::AcceptMsg accept_default;
  const paxos::DecisionMsg decision(3, 300, mixed);
  const paxos::DecisionMsg decision_default;
  const paxos::LearnerJoinMsg join(3, 77);
  const paxos::LearnerLeaveMsg leave(3, 77);
  const paxos::RecoverRequestMsg recover_req(3, 10, 200);
  const paxos::TrimRequestMsg trim(3, 99);
  const paxos::CoordHeartbeatMsg heartbeat(3, {7, 1}, 1000);
  const paxos::LearnerReportMsg report(3, 12, 130);
  const registry::RegistrySetMsg reg_set("kv/p", "blob");
  const registry::RegistryGetMsg reg_get(7, "kv/p");
  const registry::RegistryWatchMsg reg_watch("kv/", 12);
  const registry::RegistryEventMsg reg_event("kv/p", "b2", 4);
  const kv::KvSignalMsg signal(42, 3);
  const kv::SnapshotRequestMsg snap_req(9);
  const multicast::ReplyMsg reply_empty(43, 0);

  struct Pinned {
    const char* what;
    const net::Message& msg;
    size_t body_size;
    const char* hex;
  };
  const Pinned cases[] = {
      {"propose_real", propose_real, 36,
       "01000300a2808080c0010c000000ffffffff0fffffffff0f0d7061796c6f61642d6279746573"},
      {"propose_synthetic", propose_synthetic, 27,
       "01000400ac8280807007000000ffffffff0fffffffff0f050000000000"},
      {"reject", reject, 6, "0200032a09000000"},
      {"p1a", p1a, 10, "030003050000000200000064"},
      {"p1b", p1b, 82,
       "04000305000000020000000600000004000000010800000001ac0204000000020000000200a28080"
       "80c0010c000000ffffffff0fffffffff0f0d7061796c6f61642d6279746573014dffffffff010200"
       "07d20901"},
      {"accept", accept, 43,
       "0500030100000002000000370100ac8280807007000000ffffffff0fffffffff0f05000000000000"
       "2802000000"},
      {"accept_default", accept_default, 21,
       "0500ffffffff0f00000000ffffffff0000000000000000"},
      {"decision", decision, 51,
       "070003ac020200a2808080c0010c000000ffffffff0fffffffff0f0d7061796c6f61642d62797465"
       "73014dffffffff01020007d209"},
      {"decision_default", decision_default, 9, "0700ffffffff0f00000000"},
      {"join", join, 5, "0800034d000000"},
      {"leave", leave, 5, "0900034d000000"},
      {"recover_req", recover_req, 4, "0a00030ac801"},
      {"recover", recover, 14, "0b000305a403020a00c8015a0b000000"},
      {"trim", trim, 2, "0c000363"},
      {"heartbeat", heartbeat, 11, "0d00030700000001000000e807"},
      {"report", report, 7, "0e00030c0000008201"},
      {"reg_set", reg_set, 10, "6400046b762f7004626c6f62"},
      {"reg_get", reg_get, 6, "650007046b762f70"},
      {"reg_reply", reg_reply, 13, "660007046b762f7004626c6f620301"},
      {"reg_watch", reg_watch, 8, "6700036b762f0c000000"},
      {"reg_event", reg_event, 9, "6800046b762f7002623204"},
      {"sample", sample, 97,
       "2c01090000002900e1f50500000000ffffffffffffffff0206637b6e3d317d000000000000002840"
       "000000000000e03f000000000000000000000000000000000174020000000000406f400000000060"
       "e3364100000000000004c000000000882a5141"},
      {"signal", signal, 2, "ca002a03"},
      {"snap_req", snap_req, 1, "cb0009"},
      {"snap", snap, 15, "cc000902737402016402c8010200000000"},
      {"reply", reply, 7, "c9002a01ac02026f6b"},
      {"reply_empty", reply_empty, 4, "c9002b000000"},
      {"reply_view", reply_view, 7, "c9002a01ac02026f6b"},
      {"reply_pairs", reply_pairs, 15, "c9002c00020b0201610131026263026f6b"},
      {"reply_pairs_owned", reply_pairs_owned, 15, "c9002c00020b0201610131026263026f6b"},
  };
  for (const Pinned& c : cases) {
    EXPECT_EQ(c.msg.body_size(), c.body_size) << c.what;
    EXPECT_EQ(hex(MessageCodec::instance().encode(c.msg)), c.hex) << c.what;
  }
}

// ----------------------------------------------------------- failures --

TEST_F(CodecTest, UnknownTypeRejected) {
  Writer w;
  w.u16(0x7fff);
  auto result = MessageCodec::instance().decode(
      {reinterpret_cast<const char*>(w.data().data()), w.size()});
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CodecTest, TruncatedMessageRejected) {
  const auto bytes = MessageCodec::instance().encode(paxos::LearnerJoinMsg(3, 77));
  auto result = MessageCodec::instance().decode(
      {reinterpret_cast<const char*>(bytes.data()), bytes.size() - 2});
  EXPECT_FALSE(result.is_ok());
}

TEST_F(CodecTest, TrailingBytesRejected) {
  auto bytes = MessageCodec::instance().encode(paxos::LearnerJoinMsg(3, 77));
  bytes.push_back(0);
  auto result = MessageCodec::instance().decode(
      {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(CodecTest, EmptyBufferRejected) {
  auto result = MessageCodec::instance().decode("");
  EXPECT_FALSE(result.is_ok());
}

// Malformed input must come back as a corruption Status: decode() may
// neither throw nor accept a value the type cannot hold.
StatusCode decode_code(const std::vector<uint8_t>& bytes) {
  auto result = MessageCodec::instance().decode(
      {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  return result.status().code();
}

TEST_F(CodecTest, HugeListCountRejected) {
  // A 21-byte AcceptMsg whose proposal claims far more commands than
  // there are bytes left. Reserving 2^62 commands throws
  // std::length_error and 2^36 std::bad_alloc, so the count must be
  // rejected before anything is reserved.
  for (const uint64_t count : {uint64_t{1} << 62, uint64_t{1} << 36}) {
    Writer w;
    w.u16(static_cast<uint16_t>(net::MsgType::kAccept));
    w.varint(3);  // stream
    w.u32(1);     // ballot
    w.u32(2);
    w.varint(55);  // instance
    w.varint(count);
    EXPECT_EQ(decode_code(w.data()), StatusCode::kCorruption) << count;
  }
}

TEST_F(CodecTest, UnknownCommandKindRejected) {
  auto bytes =
      MessageCodec::instance().encode(paxos::ClientProposeMsg(3, sample_command()));
  bytes[3] = 9;  // after the 2-byte tag and the stream varint
  EXPECT_EQ(decode_code(bytes), StatusCode::kCorruption);
}

TEST_F(CodecTest, UnknownPointKindRejected) {
  Writer w;
  w.u16(static_cast<uint16_t>(net::MsgType::kTelemetrySample));
  w.u32(9);  // node
  w.varint(41);
  w.i64(0);
  w.i64(kSecond);
  w.varint(1);  // one point
  w.bytes("replica.delivered");
  w.u8(7);  // no such PointKind
  for (int i = 0; i < 4; ++i) w.f64(1.0);
  EXPECT_EQ(decode_code(w.data()), StatusCode::kCorruption);
}

std::string huge_count_payload() {
  Writer w;
  w.varint(uint64_t{1} << 62);
  w.bytes("k");
  return std::string(reinterpret_cast<const char*>(w.data().data()), w.size());
}

TEST_F(CodecTest, PartitionMapHugeCountDoesNotReserve) {
  kv::PartitionMap map;
  EXPECT_NO_THROW(map = kv::PartitionMap::deserialize(huge_count_payload()));
  EXPECT_LE(map.entries().size(), 1u);
}

TEST_F(CodecTest, PairListHugeCountDoesNotReserve) {
  std::vector<std::pair<std::string, std::string>> pairs;
  EXPECT_NO_THROW(pairs = kv::decode_pairs(huge_count_payload()));
  EXPECT_LE(pairs.size(), 1u);
}

}  // namespace
}  // namespace epx
