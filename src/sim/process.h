// Process: the actor base class for every simulated node.
//
// A process handles one message at a time. Handlers charge virtual CPU
// time with charge(); queued messages wait until the CPU frees up, so
// CPU saturation, queueing delay and utilisation (Fig. 4's CPU panel)
// emerge from the model rather than being scripted.
//
// Timers (after()) run through the same serial CPU queue, and are
// invalidated by crash()/restart() via an epoch counter.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <variant>

#include "net/message.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "util/timeseries.h"

namespace epx::sim {

class Process {
 public:
  Process(Simulation* sim, Network* net, NodeId id, std::string name);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool alive() const { return alive_; }
  Tick now() const { return sim_->now(); }

  /// Simulation-wide observability. Public so role objects hosted inside
  /// a process (stream learners, mergers, client stubs) can register and
  /// record their own metrics and trace events.
  obs::MetricsRegistry& metrics() { return sim_->metrics(); }
  obs::Trace& trace() { return sim_->trace(); }
  obs::SpanCollector& spans() { return sim_->spans(); }
  obs::MonitorHub& monitors() { return sim_->monitors(); }

  /// This process's telemetry scrape set — the instruments its
  /// TelemetryAgent snapshots every interval. Lazily created on first
  /// use, pre-watching `cpu.busy` and `inbox.depth`; roles add their own
  /// instruments in their constructors:
  ///
  ///   if (auto* ts = scrape_set()) ts->watch_counter(key, handle);
  ///
  /// Returns nullptr when the simulation's telemetry plane is disabled,
  /// so the default path costs one branch and no memory.
  obs::ScrapeSet* scrape_set();

  /// Invoked after on_restart() completes, every time the process
  /// restarts. The harness uses it to re-arm the telemetry agent (the
  /// crash epoch-cancelled the pending scrape tick).
  void set_restart_listener(std::function<void()> fn) {
    restart_listener_ = std::move(fn);
  }

  /// Crashes the process: pending inbox and timers are discarded and
  /// incoming messages are dropped until restart(). Subclasses override
  /// on_crash() to model loss of volatile state.
  void crash();

  /// Brings a crashed process back; subclasses override on_restart()
  /// to run their recovery protocol.
  void restart();

  /// Called by the network at message arrival time.
  void enqueue_message(NodeId from, MessagePtr msg);

  // --- CPU metrics -----------------------------------------------------
  // Backed by the registry counter `cpu.busy{node=<name>}`; the process
  // holds the handle, the registry owns the storage.
  /// Total virtual CPU time consumed.
  Tick busy_total() const { return static_cast<Tick>(cpu_busy_->total()); }
  /// Utilisation (0..1) over [from, to).
  double utilization(Tick from, Tick to) const;

  // The three methods below are public so that role objects hosted
  // inside a process (stream learners, mergers, client stubs) can send,
  // schedule and account CPU on behalf of their host.

  /// Adds `cost` of CPU work to the current handler. Messages sent after
  /// this call leave the NIC no earlier than the accumulated cost.
  void charge(Tick cost);

  /// Sends a message; departure time respects CPU charged so far.
  void send(NodeId to, MessagePtr msg);

  /// Runs `fn` after `delay`, through the CPU queue. Cancelled by
  /// crash()/restart().
  void after(Tick delay, std::function<void()> fn);

 protected:
  /// Handles one message. Runs with the CPU reserved; call charge() to
  /// account processing cost.
  virtual void on_message(NodeId from, const MessagePtr& msg) = 0;

  /// Runs after every dispatch completes (after the single item, or
  /// after the whole batch in batch-dispatch mode), still on the CPU:
  /// charges accumulate and sends respect the elapsed handler time.
  /// Batch-oriented roles (Replica) defer per-item follow-up work —
  /// merger pumping, delivery fan-out — to here so it runs once per
  /// batch instead of once per message.
  virtual void on_batch_end() {}

  virtual void on_crash() {}
  virtual void on_restart() {}

  /// Opt-in: one dispatch drains the whole inbox instead of one item.
  /// Same-tick arrivals sort ahead of the dispatch (EventClass), so the
  /// batch composition is identical in serial and parallel runs. CPU
  /// accounting is unchanged — handler costs accumulate across the
  /// batch and sends depart after the work charged before them.
  void set_batch_dispatch(bool on) { batch_dispatch_ = on; }

  Simulation& sim() { return *sim_; }
  Network& net() { return *net_; }

 private:
  struct MessageItem {
    NodeId from;
    MessagePtr msg;
  };
  struct TaskItem {
    std::function<void()> fn;
  };
  using InboxItem = std::variant<MessageItem, TaskItem>;

  void enqueue(InboxItem item);
  void maybe_schedule();
  void process_next();

  Simulation* sim_;
  Network* net_;
  NodeId id_;
  std::string name_;
  size_t shard_ = 0;  // owning shard in parallel runs (0 when serial)
  bool alive_ = true;
  bool batch_dispatch_ = false;
  uint64_t epoch_ = 0;

  std::deque<InboxItem> inbox_;
  bool dispatch_scheduled_ = false;
  Tick busy_until_ = 0;
  Tick handler_elapsed_ = 0;  // CPU charged inside the current handler
  Tick pending_busy_ = 0;     // charges batched for one cpu.busy add per handler
  size_t inbox_peak_ = 0;     // high-water mark mirrored into inbox_depth_
  bool in_handler_ = false;

  obs::Counter* cpu_busy_;    // registry-owned `cpu.busy{node=<name>}`
  obs::Gauge* inbox_depth_;   // registry-owned `inbox.depth{node=<name>}`
  std::unique_ptr<obs::ScrapeSet> scrape_set_;  // lazily created; see scrape_set()
  std::function<void()> restart_listener_;
};

}  // namespace epx::sim
