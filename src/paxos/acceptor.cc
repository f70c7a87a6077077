#include "paxos/acceptor.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace epx::paxos {

using net::MessagePtr;
using net::MsgType;

Acceptor::Acceptor(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
                   Config config)
    : Process(sim, net, id, std::move(name)), config_(std::move(config)) {
  const obs::Labels labels{{"node", this->name()}};
  decisions_ = &metrics().counter("acceptor.decisions", labels);
  recoveries_ = &metrics().counter("acceptor.recoveries", labels);
  replays_ = &metrics().counter("acceptor.replays", labels);
  if (obs::ScrapeSet* ts = scrape_set()) {
    ts->watch_counter(obs::metric_key("acceptor.decisions", labels), decisions_);
    ts->watch_counter(obs::metric_key("acceptor.recoveries", labels), recoveries_);
  }
  store_ = make_store();
}

std::unique_ptr<AcceptorStore> Acceptor::make_store() {
  if (config_.storage == StoragePolicy::kDurable) {
    return std::make_unique<WalAcceptorStore>(this, config_.device, name());
  }
  return std::make_unique<NullAcceptorStore>();
}

void Acceptor::set_storage(StoragePolicy policy, sim::DeviceParams device) {
  config_.storage = policy;
  config_.device = device;
  store_ = make_store();
}

WalAcceptorStore* Acceptor::wal_store() {
  return config_.storage == StoragePolicy::kDurable
             ? static_cast<WalAcceptorStore*>(store_.get())
             : nullptr;
}

bool Acceptor::has_decided(InstanceId instance) const {
  const Entry* e = log_.find(instance);
  return e != nullptr && e->decided;
}

void Acceptor::on_message(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kPhase1a:
      handle_phase1a(from, static_cast<const Phase1aMsg&>(*msg));
      break;
    case MsgType::kAccept:
      handle_accept(static_cast<const AcceptMsg&>(*msg));
      break;
    case MsgType::kRecoverRequest:
      handle_recover(from, static_cast<const RecoverRequestMsg&>(*msg));
      break;
    case MsgType::kTrimRequest:
      handle_trim(static_cast<const TrimRequestMsg&>(*msg));
      break;
    case MsgType::kLearnerJoin:
      learners_.insert(static_cast<const LearnerJoinMsg&>(*msg).learner);
      break;
    case MsgType::kLearnerLeave:
      learners_.erase(static_cast<const LearnerLeaveMsg&>(*msg).learner);
      break;
    case MsgType::kCoordHeartbeat:
      // Acceptors do not act on heartbeats; standby coordinators do.
      break;
    default:
      EPX_WARN << name() << ": unexpected " << msg->debug_string();
  }
}

void Acceptor::on_crash() {
  // A crash always wipes volatile state; what survives is exactly what
  // the store's durable journal can replay. The null store replays
  // nothing, so diskless acceptors restart empty — no magic retention.
  promised_ = Ballot{};
  log_.clear();
  trim_horizon_ = 0;
  decided_contiguous_ = 0;
  // Learner registrations are soft state under every policy.
  learners_.clear();
  store_->on_power_loss();
}

void Acceptor::on_restart() {
  RecoveredState rs = store_->replay();
  promised_ = rs.promised;
  trim_horizon_ = rs.trim_horizon;
  for (RecoveredState::Entry& e : rs.entries) {
    Entry& entry = log_[e.instance];
    entry.value_ballot = e.ballot;
    entry.value = std::move(e.value);
    entry.decided = e.decided;
  }
  // The watermark is recomputed from the replayed log rather than
  // trusted from any record: a stale value above a replay hole would
  // make RecoverReplies claim instances this acceptor no longer holds.
  decided_contiguous_ = trim_horizon_;
  advance_decided_contiguous();
  if (store_->durable()) {
    replays_->add(now());
    const Tick cost = store_->replay_cost();
    if (cost > 0) {
      // Charged through a task so the replay read occupies the CPU
      // before any post-restart message is processed (charges inside
      // on_restart itself would not push busy_until_).
      after(0, [this, cost] { charge(cost); });
    }
  }
}

void Acceptor::handle_phase1a(NodeId from, const Phase1aMsg& msg) {
  charge(config_.params.acceptor_cpu_per_msg);
  trace().record(now(), obs::TraceKind::kPrepare, id(), config_.stream, msg.ballot.round,
                 msg.from_instance);
  auto reply = net::make_mutable_message<Phase1bMsg>();
  reply->stream = config_.stream;
  reply->ballot = msg.ballot;
  reply->acceptor = id();
  if (msg.ballot > promised_) {
    promised_ = msg.ballot;
    store_->append_promise(promised_);
  }
  reply->promised = promised_;
  reply->ok = (promised_ == msg.ballot);
  if (reply->ok) {
    for (InstanceId i = log_.lower_bound(msg.from_instance); i != kNoInstance;
         i = log_.lower_bound(i + 1)) {
      const Entry& stored = *log_.find(i);
      AcceptedEntry e;
      e.instance = i;
      e.value_ballot = stored.value_ballot;
      e.value = stored.value;  // shares the stored proposal
      e.decided = stored.decided;
      reply->accepted.push_back(std::move(e));
    }
  }
  // The promise (and the accepted entries the reply exposes, which may
  // themselves still be in flight to the journal) must be durable
  // before the reply leaves — the classic Paxos stable-storage rule.
  store_->sync([this, from, reply = std::move(reply)]() mutable {
    send(from, std::move(reply));
  });
}

void Acceptor::charge_value_cpu(const Proposal& value) {
  Tick cost = config_.params.acceptor_cpu_per_msg;
  uint64_t bytes = 0;
  for (const auto& c : value.commands) bytes += c.payload_bytes();
  cost += static_cast<Tick>(bytes / kKiB) * config_.params.acceptor_cpu_per_kib;
  charge(cost);
}

void Acceptor::handle_accept(const AcceptMsg& msg) {
  if (msg.ballot < promised_) {
    // Stale leader; ignore. The leader discovers the higher ballot via
    // phase 1 when its instances stop deciding.
    return;
  }
  charge_value_cpu(*msg.value);
  promised_ = msg.ballot;

  if (msg.instance < trim_horizon_) return;  // already trimmed away

  Entry& entry = log_[msg.instance];
  const bool was_decided = entry.decided;
  if (was_decided) {
    // Retransmission of an instance we already know is decided. The
    // decided state may still be riding an in-flight flush, so the
    // summary answer waits behind the same durability barrier as the
    // original vote did.
    store_->sync([this, instance = msg.instance, ballot = msg.ballot, value = msg.value,
                  stored = entry.value, count = msg.accept_count + 1] {
      finish_accept(instance, ballot, value, stored, count, /*was_decided=*/true);
    });
    return;
  }
  entry.value_ballot = msg.ballot;
  entry.value = msg.value;

  const uint32_t count = msg.accept_count + 1;
  if (count >= quorum_) entry.decided = true;
  if (entry.decided && !was_decided) advance_decided_contiguous();

  // Durable runs stamp kDecide at the in-memory quorum so durable_wait
  // (kDurable - kDecide) measures the journal flush; finish_accept's
  // own kDecide record then dedupes (first wins). Diskless runs keep
  // the historical single record inside the inline continuation.
  if (count == quorum_ && !was_decided && store_->durable() && spans().enabled()) {
    for (const Command& c : msg.value->commands) {
      spans().record(c.id, obs::SpanStage::kDecide, now(), id(), config_.stream);
    }
  }

  // Write-ahead: the in-memory accept above is journaled here, and the
  // vote only propagates (ring forward, decision fan-out) once the
  // record is durable. The diskless store runs the continuation inline.
  store_->append_accept(msg.instance, msg.ballot, msg.value, entry.decided);
  store_->sync([this, instance = msg.instance, ballot = msg.ballot, value = msg.value,
                count] {
    finish_accept(instance, ballot, value, value, count, /*was_decided=*/false);
  });
}

void Acceptor::finish_accept(InstanceId instance, Ballot ballot, ProposalPtr value,
                             ProposalPtr stored, uint32_t count, bool was_decided) {
  if (was_decided) {
    // The leader's decision was lost (e.g. the deciding acceptor crashed
    // mid-fan-out). Answer with a summary so its pipeline window frees
    // up, and keep forwarding so the rest of the ring stores the value.
    Proposal summary;
    summary.first_slot = stored->first_slot;
    summary.skip_slots = stored->slot_count();
    send(ballot.leader,
         net::make_message<DecisionMsg>(config_.stream, instance, std::move(summary)));
  } else if (count == quorum_) {
    // The acceptor completing the quorum publishes the decision. The
    // coordinator (the ballot leader) only needs instance/slot
    // bookkeeping, so it receives a payload-free summary — commands are
    // collapsed into an equivalent skip run, preserving first_slot and
    // slot_count() without shipping the payload bytes again.
    decisions_->add(now());
    if (spans().enabled()) {
      if (store_->durable()) {
        for (const Command& c : value->commands) {
          spans().record(c.id, obs::SpanStage::kDurable, now(), id(), config_.stream);
        }
      }
      for (const Command& c : value->commands) {
        spans().record(c.id, obs::SpanStage::kDecide, now(), id(), config_.stream);
      }
    }
    bool leader_informed = false;
    for (NodeId learner : learners_) {
      if (learner == ballot.leader) {
        Proposal summary;
        summary.first_slot = value->first_slot;
        summary.skip_slots = value->slot_count();
        send(learner,
             net::make_message<DecisionMsg>(config_.stream, instance, std::move(summary)));
        leader_informed = true;
      } else {
        // Fan-out shares the stored proposal: one refcount bump per
        // learner instead of one command-vector copy per learner.
        send(learner, net::make_message<DecisionMsg>(config_.stream, instance, value));
      }
    }
    if (!leader_informed && ballot.leader != net::kInvalidNode) {
      // The learner set is soft state and a restarted acceptor loses it;
      // replicas re-join via gap repair but the leader has no such loop,
      // and without its summaries the pipeline window only drains at the
      // retransmission cadence. The leader is owed a summary regardless
      // of registration.
      Proposal summary;
      summary.first_slot = value->first_slot;
      summary.skip_slots = value->slot_count();
      send(ballot.leader,
           net::make_message<DecisionMsg>(config_.stream, instance, std::move(summary)));
    }
  }

  // Forward along the ring so every acceptor stores the value.
  if (successor_ != net::kInvalidNode) {
    auto fwd = net::make_mutable_message<AcceptMsg>();
    fwd->stream = config_.stream;
    fwd->ballot = ballot;
    fwd->instance = instance;
    fwd->value = std::move(value);
    fwd->accept_count = count;
    send(successor_, std::move(fwd));
  }
}

void Acceptor::advance_decided_contiguous() {
  const Entry* e = log_.find(decided_contiguous_);
  while (e != nullptr && e->decided) {
    ++decided_contiguous_;
    e = log_.find(decided_contiguous_);
  }
}

void Acceptor::handle_recover(NodeId from, const RecoverRequestMsg& msg) {
  charge(config_.params.acceptor_cpu_per_msg);
  recoveries_->add(now());
  auto reply = net::make_mutable_message<RecoverReplyMsg>();
  reply->stream = config_.stream;
  reply->trim_horizon = trim_horizon_;
  reply->decided_watermark = decided_contiguous_;
  const InstanceId from_inst = std::max(msg.from, trim_horizon_);
  uint64_t reply_bytes = 0;
  for (InstanceId i = log_.lower_bound(from_inst);
       i != kNoInstance && i < msg.to &&
       reply->entries.size() < config_.params.recover_chunk;
       i = log_.lower_bound(i + 1)) {
    const Entry& stored = *log_.find(i);
    if (!stored.decided) break;  // only ship the contiguous decided prefix
    reply->entries.emplace_back(i, stored.value);  // shares the stored proposal
    for (const auto& c : stored.value->commands) reply_bytes += c.payload_bytes();
  }
  charge(static_cast<Tick>(reply_bytes / kKiB) * config_.params.acceptor_cpu_per_kib);
  // The chunk may expose decided flags whose records are still being
  // flushed; catch-up replies obey the same durability barrier.
  store_->sync([this, from, reply = std::move(reply)]() mutable {
    send(from, std::move(reply));
  });
}

void Acceptor::handle_trim(const TrimRequestMsg& msg) {
  if (msg.up_to <= trim_horizon_) return;
  charge(config_.params.acceptor_cpu_per_msg);
  log_.trim_below(msg.up_to);
  trim_horizon_ = msg.up_to;
  decided_contiguous_ = std::max(decided_contiguous_, trim_horizon_);
  // Checkpoint the new horizon; once the record is durable the store
  // compacts the journal below it, and a restarted acceptor will not
  // serve RecoverRequests for instances it already trimmed.
  store_->append_checkpoint(promised_, trim_horizon_);
}

}  // namespace epx::paxos
