#include "harness/load_client.h"

#include <algorithm>

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
          [this](size_t thread, uint64_t cmd_id) { return awaiting_[thread] == cmd_id; },
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
  awaiting_.assign(config_.threads, 0);
  for (size_t i = 0; i < threads_.size(); ++i) issue(i);
}

void LoadClient::stop() {
  running_ = false;
  std::fill(awaiting_.begin(), awaiting_.end(), 0);
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
  awaiting_[thread_index] = cmd_id;
  send_current(t.cmd);
  retry_queue_.track(thread_index, cmd_id);
}

void LoadClient::send_current(const paxos::Command& cmd) {
  const StreamId stream = config_.route();
  const paxos::StreamInfo* info = directory_->find(stream);
  if (info == nullptr) return;
  if (spans().enabled()) {
    // First send wins inside the collector, so retries cannot restart
    // the span's clock.
    spans().record(cmd.id, obs::SpanStage::kClientSend, now(), id(), stream);
  }
  send(info->coordinator, net::make_message<paxos::ClientProposeMsg>(stream, cmd));
}

void LoadClient::on_message(NodeId from, const MessagePtr& msg) {
  (void)from;
  if (msg->type() != net::MsgType::kKvReply) return;
  const auto& reply = static_cast<const multicast::ReplyMsg&>(*msg);
  const auto it = std::find(awaiting_.begin(), awaiting_.end(), reply.command_id);
  // A duplicate reply from another replica, or a late one.
  if (reply.command_id == 0 || it == awaiting_.end()) return;
  *it = 0;
  const size_t thread_index = static_cast<size_t>(it - awaiting_.begin());

  const ThreadState& t = threads_[thread_index];
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
