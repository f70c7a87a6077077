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
    : Process(sim, net, id, std::move(name)),
      directory_(directory),
      config_(std::move(config)),
      registry_client_(this, config_.registry),
      rng_(config_.seed),
      retry_queue_(
          this, config_.retry_timeout,
          [this](size_t thread, uint64_t cmd_id) { return awaiting_[thread] == cmd_id; },
          [this](size_t thread) {
            retries_->add(now());
            dispatch(thread);  // re-routed through the refreshed map
          }) {
  const obs::Labels labels{{"node", this->name()}};
  latency_ = &metrics().timer("client.latency", labels);
  completions_ = &metrics().counter("client.completions", labels);
  retries_ = &metrics().counter("client.retries", labels);
  if (obs::ScrapeSet* ts = scrape_set()) {
    ts->watch_timer(obs::metric_key("client.latency", labels), latency_);
    ts->watch_counter(obs::metric_key("client.completions", labels), completions_);
    ts->watch_counter(obs::metric_key("client.retries", labels), retries_);
  }
}

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

void KvClient::start() {
  running_ = true;
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
  threads_.assign(config_.threads, Outstanding{});
  awaiting_.assign(config_.threads, 0);
  // Threads launch once the first partition map arrives.
  after(10 * kMillisecond, [this] {
    if (!map_.empty()) {
      for (size_t i = 0; i < threads_.size(); ++i) issue(i);
    } else {
      after(50 * kMillisecond, [this] {
        for (size_t i = 0; i < threads_.size(); ++i) issue(i);
      });
    }
  });
}

void KvClient::stop() {
  running_ = false;
  std::fill(awaiting_.begin(), awaiting_.end(), 0);
  retry_queue_.clear();
}

std::string KvClient::make_payload() {
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
    // Unique value per put: required by the linearizability checker and
    // padded to the configured size. Formatted into a flat buffer:
    // string concatenation here trips GCC 12's -Wrestrict false
    // positive (PR 105329) under -Werror.
    char value_buf[24];
    value_buf[0] = 'v';
    const auto conv = std::to_chars(value_buf + 1, value_buf + sizeof(value_buf),
                                    paxos::make_command_id(id(), seq_));
    value_.assign(value_buf, conv.ptr);
    if (value_.size() < config_.value_bytes) value_.resize(config_.value_bytes, 'x');
    op.value = value_;
  }
  return op.encode();
}

void KvClient::issue(size_t thread_index) {
  if (!running_) return;
  const uint64_t cmd_id = paxos::make_command_id(id(), seq_++);
  Outstanding& t = threads_[thread_index];
  t.cmd.kind = paxos::CommandKind::kApp;
  t.cmd.id = cmd_id;
  t.cmd.client = id();
  t.cmd.payload = std::make_shared<const std::string>(make_payload());
  t.op = KvOp::decode(*t.cmd.payload).value();
  t.sent_at = now();
  t.shards_received.clear();
  t.shards_expected = t.op.is_multi_partition() ? std::max<size_t>(map_.partition_count(), 1) : 1;
  awaiting_[thread_index] = cmd_id;
  dispatch(thread_index);
  retry_queue_.track(thread_index, cmd_id);
}

void KvClient::dispatch(size_t thread_index) {
  Outstanding& t = threads_[thread_index];
  StreamId stream = paxos::kInvalidStream;
  if (t.op.is_multi_partition()) {
    stream = global_stream_;
    t.shards_expected = std::max<size_t>(map_.partition_count(), 1);
  } else {
    const PartitionEntry* entry = map_.lookup(t.op.key);
    if (entry != nullptr) stream = entry->stream;
  }
  const paxos::StreamInfo* info = directory_->find(stream);
  if (info == nullptr) return;
  if (spans().enabled()) {
    spans().record(t.cmd.id, obs::SpanStage::kClientSend, now(), id(), stream);
  }
  send(info->coordinator, net::make_message<paxos::ClientProposeMsg>(stream, t.cmd));
}

void KvClient::complete(size_t thread_index, std::string_view get_value) {
  Outstanding& t = threads_[thread_index];
  awaiting_[thread_index] = 0;
  const Tick latency = now() - t.sent_at;
  latency_->record(now(), latency);
  completions_->add(now());

  if (config_.record_history && t.op.kind != OpKind::kGetRange) {
    checker::KvOp h;
    h.kind = t.op.kind == OpKind::kPut ? checker::KvOp::Kind::kPut
                                       : checker::KvOp::Kind::kGet;
    h.key = t.op.key;
    h.value = t.op.kind == OpKind::kPut ? t.op.value : get_value;
    h.invoke = t.sent_at;
    h.response = now();
    history_.add(std::move(h));
  }
  if (config_.think_time > 0) {
    after(config_.think_time, [this, thread_index] { issue(thread_index); });
  } else {
    issue(thread_index);
  }
}

void KvClient::on_message(NodeId from, const MessagePtr& msg) {
  (void)from;
  if (registry_client_.on_message(msg)) return;
  if (msg->type() != net::MsgType::kKvReply) return;
  const auto& reply = static_cast<const multicast::ReplyMsg&>(*msg);
  const auto it = std::find(awaiting_.begin(), awaiting_.end(), reply.command_id);
  if (reply.command_id == 0 || it == awaiting_.end()) return;  // late or duplicate
  const size_t thread_index = static_cast<size_t>(it - awaiting_.begin());
  Outstanding& t = threads_[thread_index];

  if (t.op.is_multi_partition()) {
    const auto shard = static_cast<uint32_t>(reply.shard);
    if (std::find(t.shards_received.begin(), t.shards_received.end(), shard) !=
        t.shards_received.end()) {
      return;
    }
    t.shards_received.push_back(shard);
    if (t.shards_received.size() < t.shards_expected) return;  // waiting for more shards
  }
  if (spans().enabled()) {
    spans().record(reply.command_id, obs::SpanStage::kReply, now(), id(),
                   obs::kSpanNoStream);
  }
  complete(thread_index,
           t.op.is_multi_partition() ? std::string_view() : reply.payload.flat());
}

}  // namespace epx::kv
