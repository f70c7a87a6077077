// ClosedLoopClient: the closed loop of the workload clients
// (harness::LoadClient for the broadcast experiments, kv::KvClient for
// the key/value ones).
//
// Each simulated thread keeps exactly one command outstanding: send it,
// wait for its reply, record the latency, think, repeat (paper §VII). A
// command that is not answered within the retry timeout is re-sent
// through a freshly chosen route — the mechanism behind the ~1 s
// re-partitioning gap of Fig. 4 (§VII-D).
//
// Almost every command is answered long before its retry is due, so
// instead of one timer per command the client keeps a FIFO of (deadline,
// thread, command id) in issue order and arms one timer at the oldest
// live deadline. Every deadline is a send time plus one fixed timeout,
// so the FIFO is sorted by deadline. When the timer fires, the client
// re-sends the live entries that are due, in issue order, drops the
// answered ones, and re-arms at the next live deadline. A retry still
// fires at exactly sent_at + timeout (and again every timeout while
// unanswered); an answered command costs one FIFO push and pop, and no
// timer event.
//
// A subclass fills each command in (prepare), picks its stream on every
// send (route), and in on_message decides which reply ends a thread's
// command (thread_awaiting, then complete).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "paxos/stream_directory.h"
#include "paxos/types.h"
#include "sim/process.h"
#include "util/histogram.h"
#include "util/timeseries.h"

namespace epx::multicast {

class ClosedLoopClient : public sim::Process {
 public:
  struct Config {
    size_t threads = 1;
    Tick retry_timeout = 1 * kSecond;
    /// Pause between a reply and the thread's next command (0 = pure
    /// closed loop). Used to pin benchmarks at a fraction of peak load.
    Tick think_time = 0;
  };

  ClosedLoopClient(sim::Simulation* sim, sim::Network* net, net::NodeId id,
                   std::string name, const paxos::StreamDirectory* directory,
                   const Config& config);

  /// Starts all threads (see launch()).
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
  static constexpr size_t kNoThread = static_cast<size_t>(-1);

  /// Issues every thread's first command; start() calls it.
  virtual void launch();
  /// Fills in `thread`'s next command; its kind, id and client are set.
  virtual void prepare(size_t thread, paxos::Command& cmd) = 0;
  /// The stream `thread`'s command goes to, chosen anew on every send.
  virtual paxos::StreamId route(size_t thread) = 0;

  /// The thread whose unanswered command is `command_id`, or kNoThread
  /// (a late reply, or a duplicate from another replica).
  size_t thread_awaiting(uint64_t command_id) const;
  /// Ends `thread`'s command: records its latency and, after the think
  /// time, issues the thread's next command.
  void complete(size_t thread);
  Tick sent_at(size_t thread) const { return threads_[thread].sent_at; }

 private:
  struct Thread {
    paxos::Command cmd;  ///< the outstanding command; retries re-send it
    Tick sent_at = 0;
  };
  struct Retry {
    Tick deadline;
    size_t thread;
    uint64_t id;
  };

  void issue(size_t thread);
  void send_command(size_t thread);
  void arm_retry(Tick deadline);
  void fire_retries();

  const paxos::StreamDirectory* directory_;
  Config loop_;
  bool running_ = false;
  uint32_t seq_ = 1;
  std::vector<Thread> threads_;
  /// Per thread, the id of its unanswered command (0: none). Replies
  /// find their thread by a scan; a late or duplicate one finds none.
  std::vector<uint64_t> awaiting_;
  std::deque<Retry> retry_fifo_;  ///< issue order == deadline order
  bool retry_armed_ = false;      ///< a timer is pending for retry_fifo_.front()
  uint64_t retry_gen_ = 0;        ///< bumped by stop(); stale timers compare unequal

  // Registry-owned handles, labelled {node=<name>}.
  obs::Timer* latency_;
  obs::Counter* completions_;
  obs::Counter* retries_;
};

}  // namespace epx::multicast
