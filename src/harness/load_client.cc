#include "harness/load_client.h"

#include "util/logging.h"

namespace epx::harness {

LoadClient::LoadClient(sim::Simulation* sim, sim::Network* net, NodeId id,
                       std::string name, const paxos::StreamDirectory* directory,
                       Config config)
    : Process(sim, net, id, std::move(name)),
      directory_(directory),
      config_(std::move(config)) {
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

void LoadClient::start() {
  running_ = true;
  threads_.assign(config_.threads, ThreadState{});
  for (size_t i = 0; i < threads_.size(); ++i) issue(i);
}

void LoadClient::stop() {
  running_ = false;
  inflight_.clear();
  commands_.clear();
}

void LoadClient::issue(size_t thread_index) {
  if (!running_) return;
  const uint64_t cmd_id = paxos::make_command_id(id(), seq_++);
  paxos::Command cmd;
  cmd.kind = paxos::CommandKind::kApp;
  cmd.payload_size = config_.payload_bytes;
  cmd.id = cmd_id;
  cmd.client = id();

  ThreadState& t = threads_[thread_index];
  t.current_cmd = cmd_id;
  t.sent_at = now();
  t.outstanding = true;
  inflight_[cmd_id] = thread_index;
  commands_[cmd_id] = cmd;
  send_current(cmd);
  arm_timeout(thread_index, cmd_id);
}

void LoadClient::send_current(const paxos::Command& cmd) {
  const StreamId stream = config_.route();
  if (!directory_->has(stream)) return;
  if (spans().enabled()) {
    // First send wins inside the collector, so retries cannot restart
    // the span's clock.
    spans().record(cmd.id, obs::SpanStage::kClientSend, now(), id(), stream);
  }
  send(directory_->get(stream).coordinator,
       net::make_message<paxos::ClientProposeMsg>(stream, cmd));
}

void LoadClient::arm_timeout(size_t thread_index, uint64_t cmd_id) {
  after(config_.retry_timeout, [this, thread_index, cmd_id] {
    if (!running_) return;
    ThreadState& t = threads_[thread_index];
    if (!t.outstanding || t.current_cmd != cmd_id) return;
    retries_->add(now());
    auto it = commands_.find(cmd_id);
    if (it == commands_.end()) return;
    send_current(it->second);  // route re-evaluated
    arm_timeout(thread_index, cmd_id);
  });
}

void LoadClient::on_message(NodeId from, const MessagePtr& msg) {
  (void)from;
  if (msg->type() != net::MsgType::kKvReply) return;
  const auto& reply = static_cast<const multicast::ReplyMsg&>(*msg);
  auto it = inflight_.find(reply.command_id);
  if (it == inflight_.end()) return;  // duplicate reply from another replica
  const size_t thread_index = it->second;
  inflight_.erase(it);
  commands_.erase(reply.command_id);

  ThreadState& t = threads_[thread_index];
  t.outstanding = false;
  const Tick latency = now() - t.sent_at;
  latency_->record(now(), latency);
  completions_->add(now());
  if (spans().enabled()) {
    spans().record(reply.command_id, obs::SpanStage::kReply, now(), id(), obs::kSpanNoStream);
  }

  if (config_.think_time > 0) {
    after(config_.think_time, [this, thread_index] { issue(thread_index); });
  } else {
    issue(thread_index);
  }
}

}  // namespace epx::harness
