#include "elastic/replica.h"

#include "util/logging.h"

namespace epx::elastic {

using net::MsgType;

namespace {
// The order monitor's integrity check trusts this window: a repeat it
// flags must be one this replica still remembers.
constexpr size_t kSeenWindow = 1 << 17;
static_assert(obs::MonitorHub::kDedupWindow <= kSeenWindow);
}  // namespace

Replica::Replica(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
                 const paxos::StreamDirectory* directory, Config config)
    : Process(sim, net, id, std::move(name)),
      directory_(directory),
      config_(std::move(config)),
      merger_(config_.group,
              ElasticMerger::Hooks{
                  [this](StreamId s) { start_learner(s); },
                  [this](StreamId s) { stop_learner(s); },
                  [this](const Command& c, StreamId s) { on_deliver(c, s); },
                  [this](const Command& c) { on_control(c); },
              }),
      seen_(kSeenWindow) {
  const obs::Labels labels{{"node", this->name()}};
  delivered_total_ = &metrics().counter("replica.delivered", labels);
  delivered_bytes_ = &metrics().counter("replica.bytes", labels);
  obs::Timer& subscribe_latency = metrics().timer("merge.subscribe_latency", labels);
  merger_.bind_instruments(ElasticMerger::Instruments{
      &metrics().counter("merge.discarded", labels),
      &metrics().counter("merge.scan_slots", labels),
      &subscribe_latency,
      &trace(),
      [this] { return now(); },
      this->id(),
      &monitors(),
  });
  if (obs::ScrapeSet* ts = scrape_set()) {
    ts->watch_counter(obs::metric_key("replica.delivered", labels), delivered_total_);
    ts->watch_counter(obs::metric_key("replica.bytes", labels), delivered_bytes_);
    ts->watch_timer(obs::metric_key("merge.subscribe_latency", labels),
                    &subscribe_latency);
  }
  // Decisions from independent streams pump the merger once per dispatch
  // batch (see on_batch_end) instead of once per message.
  set_batch_dispatch(true);
}

obs::Counter& Replica::per_stream_counter(StreamId stream) {
  if (stream >= per_stream_delivered_.size()) {
    per_stream_delivered_.resize(stream + 1, nullptr);
  }
  if (per_stream_delivered_[stream] == nullptr) {
    const obs::Labels labels{{"node", name()}, {"stream", std::to_string(stream)}};
    per_stream_delivered_[stream] = &metrics().counter("replica.delivered", labels);
    // Per-stream series appear mid-run as streams are subscribed; the
    // counter is registry-owned, so the watch stays valid across
    // unsubscribe/resubscribe (watch_counter is idempotent by key).
    if (obs::ScrapeSet* ts = scrape_set()) {
      ts->watch_counter(obs::metric_key("replica.delivered", labels),
                        per_stream_delivered_[stream]);
    }
  }
  return *per_stream_delivered_[stream];
}

void Replica::start() {
  monitors().register_replica(group(), id());
  merger_.bootstrap(config_.initial_streams);
}

void Replica::start_learner(StreamId stream) {
  if (!directory_->has(stream)) {
    EPX_WARN << name() << ": subscribe to unknown stream S" << stream;
    return;
  }
  const paxos::StreamInfo& info = directory_->get(stream);
  paxos::Learner::Config cfg;
  cfg.stream = stream;
  cfg.acceptors = info.acceptors;
  cfg.coordinator = info.coordinator;
  cfg.params = config_.params;
  auto learner = std::make_unique<paxos::Learner>(
      this, cfg, [this, stream](const paxos::ProposalPtr& value, paxos::InstanceId) {
        merger_.queue(stream).push_proposal(value);
      });
  learner->start(0);
  learners_[stream] = std::move(learner);
}

void Replica::stop_learner(StreamId stream) {
  auto it = learners_.find(stream);
  if (it == learners_.end()) return;
  it->second->stop();
  learners_.erase(it);
}

void Replica::on_message(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kDecision: {
      const auto& decision = static_cast<const paxos::DecisionMsg&>(*msg);
      auto it = learners_.find(decision.stream);
      if (it != learners_.end()) it->second->on_decision(decision);
      pump_pending_ = true;
      break;
    }
    case MsgType::kRecoverReply: {
      const auto& reply = static_cast<const paxos::RecoverReplyMsg&>(*msg);
      auto it = learners_.find(reply.stream);
      if (it != learners_.end()) it->second->on_recover_reply(reply);
      pump_pending_ = true;
      break;
    }
    default:
      on_app_message(from, msg);
  }
}

void Replica::on_app_message(NodeId from, const MessagePtr& msg) {
  (void)from;
  EPX_WARN << name() << ": unexpected " << msg->debug_string();
}

void Replica::on_batch_end() {
  // One pump per dispatch batch: every stream's decisions from this
  // batch are already in their queues, so a single merge scan fans all
  // of them out (and a batch with no decisions costs one branch).
  if (pump_pending_) {
    pump_pending_ = false;
    merger_.pump();
  }
}

void Replica::on_crash() {
  for (auto& [stream, learner] : learners_) learner->stop();
  learners_.clear();
}

void Replica::on_deliver(const Command& cmd, StreamId stream) {
  if (!seen_.insert(cmd.id)) {
    // Duplicate ordering (client re-send): execution is suppressed but
    // the acknowledgment is re-sent. The duplicate exists precisely
    // because the client saw no reply for the first ordering; staying
    // silent here would leave it re-sending forever — every retry
    // deduped, never acknowledged — until some freshly subscribed
    // group delivers the retry as its first occurrence (and orders it
    // against later commands inversely to longer-subscribed groups).
    if (config_.send_replies && cmd.client != net::kInvalidNode) {
      send(cmd.client, net::make_mutable_message<multicast::ReplyMsg>(cmd.id, 0));
    }
    return;
  }
  const Tick apply_cost =
      config_.apply_cpu_per_cmd +
      static_cast<Tick>(cmd.payload_bytes() / kKiB) * config_.apply_cpu_per_kib;
  charge(apply_cost);
  const Tick t = now();  // frozen while this handler runs
  delivered_total_->add(t);
  delivered_bytes_->add(t, cmd.payload_bytes());
  per_stream_counter(stream).add(t);
  monitors().on_deliver(group(), id(), stream, cmd.id, t);
  if (spans().enabled()) {
    // The merger hold ends here: kDeliver closes merge.skew_wait against
    // this node's kLearn stamp; the apply span carries its charged cost
    // explicitly because sim time is frozen inside the handler.
    spans().record(cmd.id, obs::SpanStage::kDeliver, t, id(), stream);
    spans().record(cmd.id, obs::SpanStage::kApply, t, id(), stream, apply_cost);
  }
  if (delivery_listener_) delivery_listener_(id(), cmd, stream);
  if (app_handler_) app_handler_(cmd, stream);
  if (config_.send_replies && cmd.client != net::kInvalidNode) {
    auto reply = net::make_mutable_message<multicast::ReplyMsg>(cmd.id, 0);
    send(cmd.client, std::move(reply));
  }
}

void Replica::on_control(const Command& cmd) {
  EPX_DEBUG << name() << ": control " << cmd.debug_string() << " took effect";
}

}  // namespace epx::elastic
