// LoadClient: closed-loop workload generator for the broadcast
// experiments (Figs. 3 and 5 use 5 threads/stream and 60 threads with
// 32 KB values respectively).
//
// Each thread proposes synthetic commands of a fixed size through the
// route the config chooses. The loop itself — one command outstanding
// per thread, latency, think time, and a retry that re-proposes through
// the (possibly re-evaluated) route, the mechanism behind the ~1 s
// re-partitioning gap of Fig. 4 — is multicast::ClosedLoopClient.
#pragma once

#include <functional>
#include <utility>

#include "multicast/closed_loop_client.h"
#include "multicast/messages.h"

namespace epx::harness {

using net::MessagePtr;
using net::NodeId;
using paxos::StreamId;

class LoadClient : public multicast::ClosedLoopClient {
 public:
  struct Config : ClosedLoopClient::Config {
    uint64_t payload_bytes = 1024;
    /// Chooses the stream for each (re)send. Re-evaluated on retry so
    /// clients follow partition-map changes.
    std::function<StreamId()> route;
  };

  LoadClient(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
             const paxos::StreamDirectory* directory, Config config)
      : ClosedLoopClient(sim, net, id, std::move(name), directory, config),
        config_(std::move(config)) {}

 protected:
  void prepare(size_t /*thread*/, paxos::Command& cmd) override {
    cmd.payload_size = config_.payload_bytes;
  }
  StreamId route(size_t /*thread*/) override { return config_.route(); }

  void on_message(NodeId /*from*/, const MessagePtr& msg) override {
    if (msg->type() != net::MsgType::kKvReply) return;
    const size_t thread =
        thread_awaiting(static_cast<const multicast::ReplyMsg&>(*msg).command_id);
    if (thread != kNoThread) complete(thread);
  }

 private:
  Config config_;
};

}  // namespace epx::harness
