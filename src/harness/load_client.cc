#include "harness/load_client.h"

#include "util/logging.h"

namespace epx::harness {

LoadClient::LoadClient(sim::Simulation* sim, sim::Network* net, NodeId id,
                       std::string name, const paxos::StreamDirectory* directory,
                       Config config)
    : Process(sim, net, id, std::move(name)),
      directory_(directory),
      config_(std::move(config)),
      retry_queue_(
          this, config_.retry_timeout,
          [this](size_t thread, uint64_t cmd_id) {
            const ThreadState& t = threads_[thread];
            return t.outstanding && t.cmd.id == cmd_id;
          },
          [this](size_t thread) {
            retries_->add(now());
            send_current(threads_[thread].cmd);  // route re-evaluated
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

void LoadClient::start() {
  running_ = true;
  threads_.assign(config_.threads, ThreadState{});
  for (size_t i = 0; i < threads_.size(); ++i) issue(i);
}

void LoadClient::stop() {
  running_ = false;
  inflight_.clear();
  retry_queue_.clear();
}

void LoadClient::issue(size_t thread_index) {
  if (!running_) return;
  const uint64_t cmd_id = paxos::make_command_id(id(), seq_++);
  ThreadState& t = threads_[thread_index];
  t.cmd.kind = paxos::CommandKind::kApp;
  t.cmd.payload_size = config_.payload_bytes;
  t.cmd.id = cmd_id;
  t.cmd.client = id();
  t.sent_at = now();
  t.outstanding = true;
  inflight_[cmd_id] = thread_index;
  send_current(t.cmd);
  retry_queue_.track(thread_index, cmd_id);
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

void LoadClient::on_message(NodeId from, const MessagePtr& msg) {
  (void)from;
  if (msg->type() != net::MsgType::kKvReply) return;
  const auto& reply = static_cast<const multicast::ReplyMsg&>(*msg);
  auto it = inflight_.find(reply.command_id);
  if (it == inflight_.end()) return;  // duplicate reply from another replica
  const size_t thread_index = it->second;
  inflight_.erase(it);

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
