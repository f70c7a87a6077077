#include "paxos/coordinator.h"

#include <algorithm>

#include "util/logging.h"

namespace epx::paxos {

using net::MessagePtr;
using net::MsgType;

namespace {
constexpr size_t kDedupWindow = 1 << 16;
constexpr Tick kRetryInterval = 100 * kMillisecond;
constexpr Tick kAcceptTimeout = 250 * kMillisecond;
constexpr int kAttemptsBeforeNewBallot = 3;
}  // namespace

Coordinator::Coordinator(sim::Simulation* sim, sim::Network* net, NodeId id,
                         std::string name, Config config)
    : Process(sim, net, id, std::move(name)),
      config_(std::move(config)),
      recent_ids_(kDedupWindow) {
  // Leadership begins at start(): a coordinator whose VM is still being
  // provisioned (add_stream_after) must not order anything yet.
  ballot_ = Ballot{config_.initial_round, this->id()};
  max_round_seen_ = config_.initial_round;
  const obs::Labels labels{{"stream", std::to_string(config_.stream)}};
  commands_ = &metrics().counter("coord.commands", labels);
  skips_ = &metrics().counter("coord.skips", labels);
  retries_ = &metrics().counter("coord.retries", labels);
  takeovers_ = &metrics().counter("coord.takeovers", labels);
  trim_pos_ = &metrics().gauge("coord.trim", labels);
  if (obs::ScrapeSet* ts = scrape_set()) {
    ts->watch_counter(obs::metric_key("coord.commands", labels), commands_);
    ts->watch_counter(obs::metric_key("coord.skips", labels), skips_);
    ts->watch_counter(obs::metric_key("coord.retries", labels), retries_);
    ts->watch_gauge(obs::metric_key("coord.trim", labels), trim_pos_);
  }
}

void Coordinator::start() {
  active_ = config_.active;
  last_leader_sign_of_life_ = now();
  last_refill_ = now();
  // Register as a learner so decisions come back for window management.
  for (NodeId acc : config_.acceptors) {
    send(acc, net::make_message<LearnerJoinMsg>(config_.stream, id()));
  }
  batch_tick();
  after(std::min(config_.params.skip_interval, config_.params.delta_t),
        [this] { pacing_tick(); });
  after(kRetryInterval, [this] { retry_tick(); });
  if (config_.params.auto_trim) {
    after(config_.params.trim_interval, [this] { trim_tick(); });
  }
  if (active_) {
    heartbeat_tick();
  } else {
    after(config_.params.leader_timeout, [this] { leader_monitor_tick(); });
  }
}

void Coordinator::start_after(Tick delay) {
  after(delay, [this] { start(); });
}

void Coordinator::batch_tick() {
  flush_batches();
  // Clamp so a zero batch delay cannot degenerate into a zero-delay
  // event livelock.
  after(std::max<Tick>(config_.params.batch_max_delay, 100 * kMicrosecond),
        [this] { batch_tick(); });
}

void Coordinator::set_admission_rate(double commands_per_sec) {
  config_.params.admission_rate = commands_per_sec;
}

void Coordinator::request_trim(InstanceId up_to) {
  for (NodeId acc : config_.acceptors) {
    send(acc, net::make_message<TrimRequestMsg>(config_.stream, up_to));
  }
}

void Coordinator::on_message(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kClientPropose:
      handle_client_propose(from, static_cast<const ClientProposeMsg&>(*msg));
      break;
    case MsgType::kDecision:
      handle_decision(static_cast<const DecisionMsg&>(*msg));
      break;
    case MsgType::kPhase1b:
      handle_phase1b(static_cast<const Phase1bMsg&>(*msg));
      break;
    case MsgType::kCoordHeartbeat:
      handle_heartbeat(static_cast<const CoordHeartbeatMsg&>(*msg));
      break;
    case MsgType::kLearnerReport:
      handle_learner_report(static_cast<const LearnerReportMsg&>(*msg));
      break;
    default:
      EPX_WARN << name() << ": unexpected " << msg->debug_string();
  }
}

void Coordinator::on_crash() {
  // Leader soft state: the pipeline is lost; a standby (or this process
  // after restart) re-learns stream state through phase 1.
  pending_.clear();
  throttled_.clear();
  pending_bytes_ = 0;
  outstanding_.clear();
  phase1_replies_.clear();
  takeover_in_progress_ = false;
  active_ = false;
}

void Coordinator::on_restart() {
  last_leader_sign_of_life_ = now();
  last_refill_ = now();
  for (NodeId acc : config_.acceptors) {
    send(acc, net::make_message<LearnerJoinMsg>(config_.stream, id()));
  }
  batch_tick();
  after(std::min(config_.params.skip_interval, config_.params.delta_t),
        [this] { pacing_tick(); });
  after(kRetryInterval, [this] { retry_tick(); });
  if (config_.params.auto_trim) {
    after(config_.params.trim_interval, [this] { trim_tick(); });
  }
  after(config_.params.leader_timeout, [this] { leader_monitor_tick(); });
}

void Coordinator::expire_dedup() {
  // Strict TTL expiry, run on every insert (not only when a duplicate is
  // looked up): the structure never holds an id older than dedup_ttl, so
  // its size is bounded by admitted-rate x ttl regardless of traffic
  // shape, with kDedupWindow as a hard backstop.
  const Tick ttl = config_.params.dedup_ttl;
  while (!recent_ids_.empty() && now() - recent_ids_.oldest_stamp() > ttl) {
    recent_ids_.pop_oldest();
  }
}

bool Coordinator::dedup_seen(uint64_t command_id) {
  // Suppress only recent duplicates: after the TTL a client re-send is
  // admitted again, so a command whose first copy was lost (or ordered
  // before a merge point and discarded) can be re-ordered. The TTL must
  // stay below the client retry timeout.
  expire_dedup();
  return !recent_ids_.insert(command_id, now());
}

void Coordinator::handle_client_propose(NodeId from, const ClientProposeMsg& msg) {
  if (!active_) {
    send(from, net::make_message<ProposeRejectMsg>(config_.stream, msg.command.id,
                                                   last_known_leader_));
    return;
  }
  if (dedup_seen(msg.command.id)) return;
  charge(config_.params.coord_cpu_per_cmd +
         static_cast<Tick>(msg.command.payload_bytes() / kKiB) *
             config_.params.coord_cpu_per_kib);

  if (config_.params.admission_rate > 0.0) {
    throttled_.push_back(msg.command);
    admit_pending();
  } else {
    if (pending_.empty()) oldest_pending_since_ = now();
    pending_bytes_ += msg.command.payload_bytes();
    pending_.push_back(msg.command);
  }
  flush_batches();
}

void Coordinator::admit_pending() {
  const double rate = config_.params.admission_rate;
  if (rate <= 0.0) {
    while (!throttled_.empty()) {
      if (pending_.empty()) oldest_pending_since_ = now();
      pending_bytes_ += throttled_.front().payload_bytes();
      pending_.push_back(std::move(throttled_.front()));
      throttled_.pop_front();
    }
    return;
  }
  // Refill the token bucket (burst capped at ~delta_t worth of tokens).
  const double elapsed = to_seconds(now() - last_refill_);
  last_refill_ = now();
  tokens_ = std::min(tokens_ + elapsed * rate, rate * to_seconds(config_.params.delta_t));
  while (!throttled_.empty() && tokens_ >= 1.0) {
    tokens_ -= 1.0;
    if (pending_.empty()) oldest_pending_since_ = now();
    pending_bytes_ += throttled_.front().payload_bytes();
    pending_.push_back(std::move(throttled_.front()));
    throttled_.pop_front();
  }
}

void Coordinator::flush_batches() {
  if (!active_) return;
  const Params& p = config_.params;
  while (!pending_.empty() && outstanding_.size() < p.window) {
    const bool full = pending_.size() >= p.batch_max_count || pending_bytes_ >= p.batch_max_bytes;
    const bool aged = now() - oldest_pending_since_ >= p.batch_max_delay;
    if (!full && !aged) break;
    Proposal batch;
    size_t bytes = 0;
    while (!pending_.empty() && batch.commands.size() < p.batch_max_count &&
           bytes < p.batch_max_bytes) {
      bytes += pending_.front().payload_bytes();
      batch.commands.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    pending_bytes_ -= std::min(pending_bytes_, bytes);
    oldest_pending_since_ = now();
    commands_->add(now(), batch.commands.size());
    propose(std::move(batch));
  }
}

void Coordinator::propose(Proposal value) {
  const InstanceId instance = next_instance_++;
  value.first_slot = next_slot_;
  next_slot_ += value.slot_count();
  slots_this_window_ += value.slot_count();
  if (spans().enabled()) {
    for (const Command& c : value.commands) {
      spans().record(c.id, obs::SpanStage::kPropose, now(), id(), config_.stream);
    }
  }
  // Freeze the batch once; every Accept, retry and ring hop from here on
  // shares this allocation.
  Outstanding& out = outstanding_[instance];
  out.value = make_proposal(std::move(value));
  out.proposed_at = now();
  out.attempts = 1;
  send_accept(instance, out.value);
}

void Coordinator::send_accept(InstanceId instance, const ProposalPtr& value) {
  if (config_.acceptors.empty()) return;
  uint64_t bytes = 0;
  for (const auto& c : value->commands) bytes += c.payload_bytes();
  charge(config_.params.coord_cpu_per_cmd / 2 +
         static_cast<Tick>(bytes / kKiB) * config_.params.coord_cpu_per_kib);
  auto accept = net::make_mutable_message<AcceptMsg>();
  accept->stream = config_.stream;
  accept->ballot = ballot_;
  accept->instance = instance;
  accept->value = value;
  accept->accept_count = 0;
  send(config_.acceptors.front(), std::move(accept));
}

void Coordinator::handle_decision(const DecisionMsg& msg) {
  outstanding_.erase(msg.instance);
  next_slot_ = std::max(next_slot_, msg.value->first_slot + msg.value->slot_count());
  if (msg.instance == decided_contiguous_) {
    ++decided_contiguous_;
    while (decided_sparse_.test_and_clear(decided_contiguous_)) ++decided_contiguous_;
    // Everything below the contiguous frontier is decided and erased;
    // advancing the window bases keeps both rings dense.
    decided_sparse_.trim_below(decided_contiguous_);
    outstanding_.trim_below(decided_contiguous_);
  } else if (msg.instance > decided_contiguous_) {
    decided_sparse_.set(msg.instance);
  }
  next_instance_ = std::max(next_instance_, msg.instance + 1);
  flush_batches();
}

void Coordinator::handle_learner_report(const LearnerReportMsg& msg) {
  learner_positions_[msg.learner] = {msg.next_instance, now()};
}

void Coordinator::trim_tick() {
  if (active_ && !learner_positions_.empty()) {
    // Trim below the slowest recently-reporting learner, keeping a
    // backlog for in-flight catch-ups. Stale reporters (likely departed
    // learners) are dropped so they do not pin the log forever.
    const Tick stale = 3 * config_.params.learner_report_interval;
    InstanceId min_pos = decided_contiguous_;
    for (auto it = learner_positions_.begin(); it != learner_positions_.end();) {
      if (now() - it->second.second > stale) {
        it = learner_positions_.erase(it);
      } else {
        min_pos = std::min(min_pos, it->second.first);
        ++it;
      }
    }
    if (min_pos > config_.params.trim_backlog) {
      const InstanceId trim_to = min_pos - config_.params.trim_backlog;
      if (trim_to > last_trim_) {
        last_trim_ = trim_to;
        trim_pos_->set(static_cast<double>(trim_to));
        trace().record(now(), obs::TraceKind::kTrim, id(), config_.stream, trim_to);
        EPX_DEBUG << name() << ": trimming S" << config_.stream << " below " << trim_to;
        request_trim(trim_to);
      }
    }
  }
  after(config_.params.trim_interval, [this] { trim_tick(); });
}

void Coordinator::pacing_tick() {
  admit_pending();
  flush_batches();
  if (active_) {
    // Pace the stream's virtual position against the GLOBAL clock:
    // position ~ lambda * wall-time, identical for every stream. A
    // stream provisioned late immediately pads one large skip run up to
    // the cluster-wide position, which keeps Elastic Paxos merge points
    // reachable (the new stream would otherwise lag the old ones by its
    // creation time forever).
    const auto target = static_cast<uint64_t>(config_.params.lambda * to_seconds(now()));
    // next_slot_ already counts in-flight proposals, so this pads only
    // the genuine shortfall.
    const uint64_t position = next_slot_;
    if (position < target && outstanding_.size() < config_.params.window) {
      Proposal skip;
      skip.skip_slots = target - position;
      skips_->add(now(), skip.skip_slots);
      trace().record(now(), obs::TraceKind::kSkipRun, id(), config_.stream, position,
                     skip.skip_slots);
      propose(std::move(skip));
    }
  }
  slots_this_window_ = 0;
  after(std::min(config_.params.skip_interval, config_.params.delta_t),
        [this] { pacing_tick(); });
}

void Coordinator::retry_tick() {
  if (active_) {
    for (InstanceId instance = outstanding_.first(); instance != kNoInstance;
         instance = outstanding_.lower_bound(instance + 1)) {
      Outstanding& out = *outstanding_.find(instance);
      if (now() - out.proposed_at < kAcceptTimeout) continue;
      out.proposed_at = now();
      ++out.attempts;
      retries_->add(now());
      if (out.attempts > kAttemptsBeforeNewBallot && !takeover_in_progress_) {
        // Our ballot is probably stale (another leader took over and then
        // died, or acceptors promised higher). Re-establish leadership.
        EPX_DEBUG << name() << ": instance " << instance << " stuck, re-running phase 1";
        begin_takeover();
        break;
      }
      send_accept(instance, out.value);
    }
  }
  after(kRetryInterval, [this] { retry_tick(); });
}

void Coordinator::heartbeat_tick() {
  if (!active_) return;
  for (NodeId acc : config_.acceptors) {
    send(acc, net::make_message<CoordHeartbeatMsg>(config_.stream, ballot_, next_instance_));
  }
  for (NodeId standby : config_.standbys) {
    if (standby == id()) continue;
    send(standby,
         net::make_message<CoordHeartbeatMsg>(config_.stream, ballot_, next_instance_));
  }
  after(config_.params.heartbeat_interval, [this] { heartbeat_tick(); });
}

void Coordinator::handle_heartbeat(const CoordHeartbeatMsg& msg) {
  max_round_seen_ = std::max(max_round_seen_, msg.ballot.round);
  if (msg.ballot > ballot_ || !active_) {
    last_leader_sign_of_life_ = now();
    last_known_leader_ = msg.ballot.leader;
  }
  if (active_ && msg.ballot > ballot_) {
    // A higher-ballot leader exists; stand down.
    EPX_DEBUG << name() << ": standing down for " << msg.ballot.to_string();
    active_ = false;
    outstanding_.clear();
    after(config_.params.leader_timeout, [this] { leader_monitor_tick(); });
  }
}

void Coordinator::leader_monitor_tick() {
  if (active_) return;
  if (now() - last_leader_sign_of_life_ >= config_.params.leader_timeout &&
      !takeover_in_progress_) {
    begin_takeover();
  }
  after(config_.params.leader_timeout / 2, [this] { leader_monitor_tick(); });
}

void Coordinator::begin_takeover() {
  takeover_in_progress_ = true;
  active_ = false;
  phase1_replies_.clear();
  ballot_ = Ballot{std::max(ballot_.round, max_round_seen_) + 1, id()};
  max_round_seen_ = ballot_.round;
  takeovers_->add(now());
  trace().record(now(), obs::TraceKind::kTakeoverBegin, id(), config_.stream, ballot_.round,
                 decided_contiguous_);
  EPX_DEBUG << name() << ": phase 1 with " << ballot_.to_string() << " from instance "
            << decided_contiguous_;
  for (NodeId acc : config_.acceptors) {
    send(acc, net::make_message<Phase1aMsg>(config_.stream, ballot_, decided_contiguous_));
  }
  // If the quorum does not answer, retry with a fresh ballot later.
  after(config_.params.leader_timeout, [this] {
    if (takeover_in_progress_) {
      takeover_in_progress_ = false;
      begin_takeover();
    }
  });
}

void Coordinator::handle_phase1b(const Phase1bMsg& msg) {
  if (!takeover_in_progress_ || msg.ballot != ballot_) return;
  if (!msg.ok) {
    max_round_seen_ = std::max(max_round_seen_, msg.promised.round);
    return;  // will retry with a higher round via the takeover timer
  }
  phase1_replies_[msg.acceptor] = msg;
  const size_t quorum = config_.acceptors.size() / 2 + 1;
  if (phase1_replies_.size() >= quorum) finish_takeover();
}

void Coordinator::finish_takeover() {
  takeover_in_progress_ = false;
  active_ = true;
  last_refill_ = now();

  // Adopt the highest-ballot accepted value for every instance reported
  // by the quorum, and fill holes with no-ops.
  std::map<InstanceId, AcceptedEntry> adopt;
  for (const auto& [acc, reply] : phase1_replies_) {
    for (const auto& entry : reply.accepted) {
      auto it = adopt.find(entry.instance);
      if (it == adopt.end() || entry.value_ballot > it->second.value_ballot ||
          (entry.decided && !it->second.decided)) {
        adopt[entry.instance] = entry;
      }
    }
  }
  phase1_replies_.clear();

  InstanceId highest = decided_contiguous_;
  if (!adopt.empty()) highest = std::max(highest, adopt.rbegin()->first + 1);
  outstanding_.clear();
  // Re-base the emptied window at the frontier (O(1) on an empty log):
  // late in a run decided_contiguous_ is large, and re-proposing from a
  // zero-based window would size the ring by the absolute instance id.
  outstanding_.trim_below(decided_contiguous_);
  decided_sparse_.trim_below(decided_contiguous_);
  for (InstanceId i = decided_contiguous_; i < highest; ++i) {
    auto it = adopt.find(i);
    // No-op for holes (consumes no slots); adopted values share the
    // phase-1b reply's allocation.
    ProposalPtr value = it != adopt.end() ? it->second.value : empty_proposal();
    next_slot_ = std::max(next_slot_, value->first_slot + value->slot_count());
    Outstanding& out = outstanding_[i];
    out.value = std::move(value);
    out.proposed_at = now();
    out.attempts = 1;
    send_accept(i, out.value);
  }
  next_instance_ = highest;
  trace().record(now(), obs::TraceKind::kTakeoverComplete, id(), config_.stream,
                 ballot_.round, outstanding_.size());
  EPX_DEBUG << name() << ": leader with " << ballot_.to_string() << ", re-proposed "
            << outstanding_.size() << " instances, next=" << next_instance_;
  heartbeat_tick();
  flush_batches();
}

}  // namespace epx::paxos
