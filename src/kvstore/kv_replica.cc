#include "kvstore/kv_replica.h"

#include "util/logging.h"

namespace epx::kv {

namespace {
constexpr uint8_t kMalformedOp = 2;  // ReplyMsg::status: the payload did not decode
}  // namespace

KvReplica::KvReplica(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
                     const paxos::StreamDirectory* directory, Replica::Config base,
                     KvConfig kv_config)
    : Replica(sim, net, id, std::move(name), directory,
              [&base] {
                base.send_replies = false;  // the KV layer replies itself
                return base;
              }()),
      kv_config_(kv_config) {
  const obs::Labels labels{{"node", this->name()}};
  executed_ = &metrics().counter("kv.executed", labels);
  discarded_ = &metrics().counter("kv.discarded", labels);
  signals_sent_ = &metrics().counter("kv.signals", labels);
  snapshot_bytes_ = &metrics().counter("kv.snapshot_bytes", labels);
  if (obs::ScrapeSet* ts = scrape_set()) {
    ts->watch_counter(obs::metric_key("kv.executed", labels), executed_);
    ts->watch_counter(obs::metric_key("kv.snapshot_bytes", labels), snapshot_bytes_);
  }
  set_app_handler([this](const Command& cmd, StreamId) { on_kv_deliver(cmd); });
}

void KvReplica::set_ownership(uint32_t partition_id, uint64_t hash_lo, uint64_t hash_hi) {
  kv_config_.partition_id = partition_id;
  kv_config_.hash_lo = hash_lo;
  kv_config_.hash_hi = hash_hi;
  EPX_DEBUG << name() << ": now partition " << partition_id;
}

void KvReplica::set_peers(std::vector<PeerReplica> peers) { peers_ = std::move(peers); }

size_t KvReplica::purge_unowned() {
  const size_t purged =
      store_.erase_if([this](std::string_view key) { return !owns(key_hash(key)); });
  charge(static_cast<Tick>(purged) * kv_config_.scan_cpu_per_key);
  return purged;
}

void KvReplica::install_snapshot(const SnapshotReplyMsg& snapshot) {
  if (snapshot.store) absorb_store(*snapshot.store, /*overwrite=*/true);
  for (const auto& [stream, pos] : snapshot.stream_positions) {
    merger().queue(stream).fast_forward(pos);
  }
}

void KvReplica::absorb_store(const std::string& encoded_pairs, bool overwrite) {
  auto pairs = decode_pairs(encoded_pairs);
  charge(static_cast<Tick>(pairs.size()) * kv_config_.scan_cpu_per_key);
  for (auto& [k, v] : pairs) {
    const uint64_t hash = key_hash(k);
    if (!overwrite && store_.get(k, hash)) continue;
    // Each absorbed value owns its bytes, so no entry pins the blob.
    auto owner = std::make_shared<const std::string>(std::move(v));
    const std::string_view bytes = *owner;
    store_.put(k, hash, bytes, std::move(owner));
  }
}

void KvReplica::join_via(NodeId donor) {
  join_donor_ = donor;
  join_request_id_ = paxos::make_command_id(id(), 1);
  send(donor, net::make_message<SnapshotRequestMsg>(join_request_id_));
  // Guard against a lost request/reply.
  after(500 * kMillisecond, [this] {
    if (!joined_ && join_donor_ != net::kInvalidNode) join_via(join_donor_);
  });
}

void KvReplica::on_kv_deliver(const Command& cmd) {
  if (!cmd.payload) return;
  Result<KvOp> decoded = KvOp::decode(*cmd.payload);
  if (!decoded.is_ok()) {
    reply(cmd, kMalformedOp);  // the client completes on any reply
    return;
  }
  const KvOp& op = decoded.value();
  if (!op.is_multi_partition()) {
    // Single-partition commands never need to wait; but ordering with a
    // blocked multi-partition command ahead of them must be preserved.
    if (exec_queue_.empty()) {
      execute(cmd, op);
      return;
    }
  }
  exec_queue_.push_back(PendingExec{cmd, op, false});
  drain_exec_queue();
}

void KvReplica::drain_exec_queue() {
  while (!exec_queue_.empty()) {
    PendingExec& head = exec_queue_.front();
    if (head.op.is_multi_partition()) {
      if (!head.signalled) {
        // Tell every other partition we delivered this command.
        for (const PeerReplica& peer : peers_) {
          if (peer.partition_id == kv_config_.partition_id) continue;
          signals_sent_->add(now());
          send(peer.node,
               net::make_message<KvSignalMsg>(head.cmd.id, kv_config_.partition_id));
        }
        head.signalled = true;
      }
      if (!signals_complete(head.cmd.id)) return;  // blocked on peers
      signals_.erase(head.cmd.id);
      executed_ranges_.insert(head.cmd.id);
    }
    const PendingExec exec = std::move(exec_queue_.front());
    exec_queue_.pop_front();
    execute(exec.cmd, exec.op);
  }
}

bool KvReplica::signals_complete(uint64_t command_id) const {
  // One signal from each *other* partition present in the peer list.
  for (const PeerReplica& peer : peers_) {
    if (peer.partition_id == kv_config_.partition_id) continue;
    if (!signals_.contains(command_id, peer.partition_id)) return false;
  }
  return true;
}

void KvReplica::execute(const Command& cmd, const KvOp& op) {
  if (op.is_multi_partition()) {
    execute_getrange(cmd, op);
  } else {
    execute_single(cmd, op);
  }
}

void KvReplica::execute_single(const Command& cmd, const KvOp& op) {
  const uint64_t hash = op.hash();
  if (!owns(hash)) {
    // Wrong partition (command raced a re-partitioning): discard; the
    // client re-sends to the correct partition after its timeout.
    discarded_->add(now());
    return;
  }
  executed_->add(now());
  switch (op.kind) {
    case OpKind::kPut:
      store_.put(op.key, hash, op.value, cmd.payload);
      reply(cmd, 0);
      break;
    case OpKind::kGet: {
      const KvStore::Value* value = store_.find_value(op.key, hash);
      if (value == nullptr) {
        reply(cmd, 1);
      } else {
        reply(cmd, 0, net::SharedBody(value->owner, value->bytes));
      }
      break;
    }
    case OpKind::kGetRange:
      break;  // unreachable
  }
}

void KvReplica::execute_getrange(const Command& cmd, const KvOp& op) {
  executed_->add(now());
  net::SharedBody result = store_.range(op.key, op.end_key);
  charge(static_cast<Tick>(result.pair_count()) * kv_config_.scan_cpu_per_key);
  reply(cmd, 0, std::move(result));
}

void KvReplica::reply(const Command& cmd, uint8_t status, net::SharedBody payload) {
  if (cmd.client == net::kInvalidNode) return;
  auto msg = net::make_mutable_message<multicast::ReplyMsg>(cmd.id, status);
  msg->shard = kv_config_.partition_id;
  msg->payload = std::move(payload);
  send(cmd.client, std::move(msg));
}

void KvReplica::on_app_message(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case net::MsgType::kKvSignal: {
      const auto& signal = static_cast<const KvSignalMsg&>(*msg);
      // Late: another replica of a partition that already unblocked it.
      if (executed_ranges_.contains(signal.command_id)) break;
      signals_.insert(signal.command_id, signal.partition_id);
      drain_exec_queue();
      break;
    }
    case net::MsgType::kSnapshotRequest: {
      const auto& req = static_cast<const SnapshotRequestMsg&>(*msg);
      auto reply_msg = net::make_mutable_message<SnapshotReplyMsg>();
      reply_msg->request_id = req.request_id;
      reply_msg->clean =
          merger().phase() == elastic::ElasticMerger::Phase::kNormal;
      if (reply_msg->clean) {
        const net::SharedBody all = store_.range({}, std::nullopt);
        const size_t keys = all.pair_count();
        reply_msg->store = std::make_shared<const std::string>(all.str());
        snapshot_bytes_->add(now(), reply_msg->store->size());
        for (StreamId s : merger().subscriptions()) {
          reply_msg->stream_positions.emplace_back(s, merger().queue(s).next_index());
        }
        reply_msg->next_stream = merger().current_stream();
        charge(static_cast<Tick>(keys) * kv_config_.scan_cpu_per_key);
      }
      send(from, std::move(reply_msg));
      break;
    }
    case net::MsgType::kSnapshotReply: {
      const auto& snapshot = static_cast<const SnapshotReplyMsg&>(*msg);
      if (joined_ || snapshot.request_id != join_request_id_) break;
      if (!snapshot.clean) break;  // the retry timer asks again
      joined_ = true;
      join_donor_ = net::kInvalidNode;
      if (snapshot.store) absorb_store(*snapshot.store, /*overwrite=*/true);
      std::vector<std::pair<StreamId, paxos::SlotIndex>> cut;
      for (const auto& [stream, pos] : snapshot.stream_positions) {
        cut.emplace_back(stream, pos);
      }
      // A snapshot join lands this member mid-stream; its delivery
      // prefix is not comparable with founding members, so take it out
      // of the order monitor (see obs/monitor.h).
      monitors().deregister_replica(group(), id());
      merger().restore(cut, snapshot.next_stream);
      EPX_DEBUG << name() << ": joined group via snapshot (" << store_.size()
                << " keys, " << cut.size() << " streams)";
      break;
    }
    default:
      Replica::on_app_message(from, msg);
  }
}

}  // namespace epx::kv
