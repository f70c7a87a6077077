#include "multicast/closed_loop_client.h"

#include <algorithm>

#include "paxos/messages.h"

namespace epx::multicast {

ClosedLoopClient::ClosedLoopClient(sim::Simulation* sim, sim::Network* net,
                                   net::NodeId id, std::string name,
                                   const paxos::StreamDirectory* directory,
                                   const Config& config)
    : Process(sim, net, id, std::move(name)), directory_(directory), loop_(config) {
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

void ClosedLoopClient::start() {
  running_ = true;
  threads_.assign(loop_.threads, Thread{});
  awaiting_.assign(loop_.threads, 0);
  launch();
}

void ClosedLoopClient::launch() {
  for (size_t i = 0; i < threads_.size(); ++i) issue(i);
}

void ClosedLoopClient::stop() {
  running_ = false;
  std::fill(awaiting_.begin(), awaiting_.end(), 0);
  retry_fifo_.clear();
  retry_armed_ = false;
  ++retry_gen_;
}

size_t ClosedLoopClient::thread_awaiting(uint64_t command_id) const {
  const auto it = std::find(awaiting_.begin(), awaiting_.end(), command_id);
  if (command_id == 0 || it == awaiting_.end()) return kNoThread;
  return static_cast<size_t>(it - awaiting_.begin());
}

void ClosedLoopClient::issue(size_t thread) {
  if (!running_) return;
  Thread& t = threads_[thread];
  t.cmd.kind = paxos::CommandKind::kApp;
  t.cmd.id = paxos::make_command_id(id(), seq_++);
  t.cmd.client = id();
  prepare(thread, t.cmd);
  t.sent_at = now();
  awaiting_[thread] = t.cmd.id;
  send_command(thread);
  retry_fifo_.push_back(Retry{now() + loop_.retry_timeout, thread, t.cmd.id});
  if (!retry_armed_) arm_retry(retry_fifo_.back().deadline);
}

void ClosedLoopClient::send_command(size_t thread) {
  const paxos::StreamId stream = route(thread);
  const paxos::StreamInfo* info = directory_->find(stream);
  if (info == nullptr) return;
  const paxos::Command& cmd = threads_[thread].cmd;
  if (spans().enabled()) {
    // First send wins inside the collector, so retries cannot restart
    // the span's clock.
    spans().record(cmd.id, obs::SpanStage::kClientSend, now(), id(), stream);
  }
  send(info->coordinator, net::make_message<paxos::ClientProposeMsg>(stream, cmd));
}

void ClosedLoopClient::complete(size_t thread) {
  awaiting_[thread] = 0;
  const Thread& t = threads_[thread];
  latency_->record(now(), now() - t.sent_at);
  completions_->add(now());
  if (spans().enabled()) {
    spans().record(t.cmd.id, obs::SpanStage::kReply, now(), id(), obs::kSpanNoStream);
  }
  if (loop_.think_time > 0) {
    after(loop_.think_time, [this, thread] { issue(thread); });
  } else {
    issue(thread);
  }
}

void ClosedLoopClient::arm_retry(Tick deadline) {
  retry_armed_ = true;
  after(deadline - now(), [this, gen = retry_gen_] {
    if (gen == retry_gen_) fire_retries();
  });
}

void ClosedLoopClient::fire_retries() {
  retry_armed_ = false;
  while (!retry_fifo_.empty()) {
    const Retry r = retry_fifo_.front();
    if (awaiting_[r.thread] != r.id) {
      retry_fifo_.pop_front();  // answered
      continue;
    }
    if (r.deadline > now()) break;
    retry_fifo_.pop_front();
    retries_->add(now());
    send_command(r.thread);  // the route is chosen anew
    retry_fifo_.push_back(Retry{now() + loop_.retry_timeout, r.thread, r.id});
  }
  if (!retry_fifo_.empty()) arm_retry(retry_fifo_.front().deadline);
}

}  // namespace epx::multicast
