// LoadClient: closed-loop workload generator for the broadcast
// experiments (Figs. 3 and 5 use 5 threads/stream and 60 threads with
// 32 KB values respectively).
//
// Each simulated thread keeps exactly one command outstanding: propose,
// wait for the first replica reply, record latency, repeat. A command
// that is not answered within the retry timeout is re-proposed through
// the (possibly re-evaluated) route — the mechanism behind the ~1 s
// re-partitioning gap of Fig. 4.
#pragma once

#include <functional>
#include <vector>

#include "multicast/messages.h"
#include "multicast/retry_queue.h"
#include "paxos/messages.h"
#include "paxos/stream_directory.h"
#include "sim/process.h"
#include "util/histogram.h"
#include "util/timeseries.h"

namespace epx::harness {

using net::MessagePtr;
using net::NodeId;
using paxos::StreamId;

class LoadClient : public sim::Process {
 public:
  struct Config {
    size_t threads = 1;
    uint64_t payload_bytes = 1024;
    /// Chooses the stream for each (re)send. Re-evaluated on retry so
    /// clients follow partition-map changes.
    std::function<StreamId()> route;
    Tick retry_timeout = 1 * kSecond;
    Tick think_time = 0;
  };

  LoadClient(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
             const paxos::StreamDirectory* directory, Config config);

  /// Starts all threads.
  void start();
  /// Stops issuing new commands (outstanding ones are abandoned).
  void stop();

  // --- metrics ------------------------------------------------------------
  // Registry-backed: `client.latency{node=}` (timer),
  // `client.completions{node=}` and `client.retries{node=}` (counters).
  const Histogram& latency() const { return latency_->total(); }
  const WindowedCounter& completions() const { return completions_->series(); }
  /// Windowed latency timer (bounded ring; latency-over-time panels).
  const obs::Timer& latency_timer() const { return *latency_; }
  uint64_t completed() const { return completions_->total(); }
  uint64_t retries() const { return retries_->total(); }

 protected:
  void on_message(NodeId from, const MessagePtr& msg) override;

 private:
  struct ThreadState {
    paxos::Command cmd;  ///< the outstanding command; retries re-send it
    Tick sent_at = 0;
  };

  void issue(size_t thread_index);
  void send_current(const paxos::Command& cmd);

  const paxos::StreamDirectory* directory_;
  Config config_;
  bool running_ = false;
  uint32_t seq_ = 1;
  std::vector<ThreadState> threads_;
  /// Per thread, the id of its unanswered command (0: none). Replies
  /// find their thread by a scan; a late or duplicate one finds none.
  std::vector<uint64_t> awaiting_;
  multicast::RetryQueue retry_queue_;

  // Registry-owned handles, labelled {node=<name>}.
  obs::Timer* latency_;
  obs::Counter* completions_;
  obs::Counter* retries_;
};

}  // namespace epx::harness
