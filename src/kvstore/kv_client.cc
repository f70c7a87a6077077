#include "kvstore/kv_client.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <limits>

#include "util/logging.h"

namespace epx::kv {

KvClient::KvClient(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
                   const paxos::StreamDirectory* directory, Config config)
    : ClosedLoopClient(sim, net, id, std::move(name), directory, config),
      config_(std::move(config)),
      registry_client_(this, config_.registry),
      rng_(config_.seed) {}

std::string KvClient::key_name(size_t index) {
  // "key%010zu" without parsing a format string.
  char digits[std::numeric_limits<size_t>::digits10 + 1];
  const char* end = std::to_chars(std::begin(digits), std::end(digits), index).ptr;
  const size_t n = static_cast<size_t>(end - digits);
  std::string key(3 + std::max<size_t>(n, 10), '0');
  std::memcpy(key.data(), "key", 3);
  std::memcpy(key.data() + key.size() - n, digits, n);
  return key;
}

void KvClient::launch() {
  registry_client_.watch("kv/", [this](const std::string& key, const std::string& value,
                                       uint64_t) {
    if (key == kPartitionMapKey) {
      map_ = PartitionMap::deserialize(value);
      EPX_DEBUG << name() << ": partition map updated, " << map_.partition_count()
                << " partitions";
    } else if (key == kGlobalStreamKey) {
      global_stream_ = static_cast<StreamId>(std::stoul(value));
    }
  });
  pending_.assign(config_.threads, Pending{});
  // Threads launch once the first partition map arrives.
  after(10 * kMillisecond, [this] {
    if (!map_.empty()) {
      ClosedLoopClient::launch();
    } else {
      after(50 * kMillisecond, [this] { ClosedLoopClient::launch(); });
    }
  });
}

std::string KvClient::make_payload(uint64_t cmd_id) {
  KvOp op;
  const double dice = rng_.uniform_double();
  const size_t key_index = rng_.uniform(config_.key_space);
  const std::string key = key_name(key_index);
  op.key = key;
  std::string end_key;
  if (dice < config_.getrange_ratio) {
    op.kind = OpKind::kGetRange;
    end_key = key_name(std::min(key_index + config_.range_span, config_.key_space));
    op.end_key = end_key;
  } else if (dice < config_.getrange_ratio + config_.get_ratio) {
    op.kind = OpKind::kGet;
  } else {
    op.kind = OpKind::kPut;
    // Unique value per put, 'v' and the command id plus one: required
    // by the linearizability checker and padded to the configured size.
    // Formatted into a flat buffer: string concatenation here trips
    // GCC 12's -Wrestrict false positive (PR 105329) under -Werror.
    char value_buf[24];
    value_buf[0] = 'v';
    const auto conv =
        std::to_chars(value_buf + 1, value_buf + sizeof(value_buf), cmd_id + 1);
    value_.assign(value_buf, conv.ptr);
    if (value_.size() < config_.value_bytes) value_.resize(config_.value_bytes, 'x');
    op.value = value_;
  }
  return op.encode();
}

void KvClient::prepare(size_t thread, paxos::Command& cmd) {
  cmd.payload = std::make_shared<const std::string>(make_payload(cmd.id));
  Pending& t = pending_[thread];
  t.op = KvOp::decode(*cmd.payload).value();
  t.shards_received.clear();
}

StreamId KvClient::route(size_t thread) {
  Pending& t = pending_[thread];
  if (t.op.is_multi_partition()) {
    t.shards_expected = std::max<size_t>(map_.partition_count(), 1);
    return global_stream_;
  }
  const PartitionEntry* entry = map_.lookup(t.op.key);
  return entry == nullptr ? paxos::kInvalidStream : entry->stream;
}

void KvClient::on_message(NodeId /*from*/, const MessagePtr& msg) {
  if (registry_client_.on_message(msg)) return;
  if (msg->type() != net::MsgType::kKvReply) return;
  const auto& reply = static_cast<const multicast::ReplyMsg&>(*msg);
  const size_t thread = thread_awaiting(reply.command_id);
  if (thread == kNoThread) return;
  Pending& t = pending_[thread];

  if (t.op.is_multi_partition()) {
    const auto shard = static_cast<uint32_t>(reply.shard);
    if (std::find(t.shards_received.begin(), t.shards_received.end(), shard) !=
        t.shards_received.end()) {
      return;
    }
    t.shards_received.push_back(shard);
    if (t.shards_received.size() < t.shards_expected) return;  // waiting for more shards
  } else if (config_.record_history) {
    checker::KvOp h;
    h.kind = t.op.kind == OpKind::kPut ? checker::KvOp::Kind::kPut
                                       : checker::KvOp::Kind::kGet;
    h.key = t.op.key;
    h.value = t.op.kind == OpKind::kPut ? t.op.value : reply.payload.flat();
    h.invoke = sent_at(thread);
    h.response = now();
    history_.add(std::move(h));
  }
  complete(thread);  // issues the next op, which overwrites t.op
}

}  // namespace epx::kv
