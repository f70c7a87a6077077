// Discrete-event simulation driver.
//
// A Simulation owns the virtual clock and an event queue ordered by
// (time, class, insertion sequence). Everything in the simulated
// cluster — message deliveries, CPU completions, timers — is an event.
// Runs are fully deterministic for a fixed configuration and RNG seed.
//
// The engine is a slab-allocated timing wheel (see sim/event_queue.h):
// scheduling the common small-capture callbacks performs no heap
// allocation and near-future schedule/pop are O(1).
//
// Execution modes (see DESIGN.md §13):
//
//   * serial (threads() == 1, the default): one queue, one thread —
//     the reference engine every other mode is differentially tested
//     against.
//
//   * parallel (set_threads(n > 1)): processes are partitioned into n
//     shards, each with its own event queue and clock, advancing in
//     conservative windows. Each shard gets its own horizon from the
//     per-shard-pair lookahead matrix (DESIGN.md §17): shard i may run
//     up to min over sending shards j of tmin_j + L(j, i), so shards
//     separated only by WAN links advance tens of milliseconds while a
//     local clique stays tightly coupled — clocks drift apart inside a
//     window instead of marching in lockstep behind the globally fastest
//     link. Cross-shard messages travel through the network's canonical
//     per-destination channels and are exchanged at window barriers;
//     events scheduled from outside process context form a control lane
//     that runs with all shards quiescent. Same-tick ordering is by
//     event class (deliveries < timers < dispatches < control), which
//     together with the canonical channels makes the parallel schedule
//     reproduce the serial one exactly: identical seed ⇒ identical
//     delivery order and metrics in both modes.
//     When spans or monitors are armed the windowed schedule still runs
//     but on the calling thread only (those subsystems are not
//     shard-confined), so traced runs stay valid — just not faster.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "util/units.h"

namespace epx::sim {

/// Barrier-time hooks implemented by cross-shard communication fabrics
/// (the Network). The windowed runner calls exchange() with every shard
/// parked, so implementations move staged cross-shard messages into
/// their canonical channels and flush staged counters without locks.
class ParallelClient {
 public:
  virtual ~ParallelClient() = default;
  /// Minimum delay, in ticks, of a DIRECT interaction originating on
  /// shard `src_shard` and landing on shard `dst_shard` — the engine
  /// min-plus-closes the matrix itself, so implementations report
  /// single-hop bounds only. Tick-max "unconstrained" values are fine
  /// for pairs that cannot interact directly; every reachable pair must
  /// be > 0 for parallel execution to preserve the serial schedule.
  /// Called only between windows (coordinator context), so
  /// implementations may lazily rebuild caches here.
  virtual Tick lookahead(size_t src_shard, size_t dst_shard) const = 0;
  /// Called once per parallel run start with the shard count.
  virtual void begin_parallel(size_t shards) = 0;
  /// Runs at every window barrier and after every control drain. Returns
  /// true when any staged work was actually spliced or flushed, so the
  /// engine can account thinned (no-op) barriers separately.
  virtual bool exchange() = 0;
};

/// Parallel-engine execution counters, exposed for tests and benches.
/// Deliberately NOT registry metrics: the differential suite compares
/// the full metrics JSON between serial and parallel runs, and these
/// exist only when the windowed engine runs.
struct EngineStats {
  uint64_t windows = 0;           ///< conservative windows executed
  uint64_t control_drains = 0;    ///< control-lane events run
  uint64_t exchanges = 0;         ///< barriers that moved staged work
  uint64_t exchanges_skipped = 0; ///< thinned barriers (nothing staged)
};

class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// The virtual clock. While a shard executes events, this reads the
  /// executing shard's clock (events always see their own timestamp),
  /// otherwise the global (control) clock.
  Tick now() const {
    const Shard* s = tls_shard_;
    return (s != nullptr && s->sim == this) ? s->now : now_;
  }

  // --- parallel configuration ------------------------------------------
  /// Partitions the simulation into `n` shards on `n` worker threads.
  /// Must be called before any Process is constructed (shard assignment
  /// happens at attach time); n <= 1 selects the serial engine.
  void set_threads(size_t n);
  size_t threads() const { return threads_; }

  /// Overrides the NodeId -> shard mapping (defaults to id % threads).
  /// The mapping affects performance only: delivery order and metrics
  /// are identical for every assignment (differentially tested).
  void set_shard_assignment(std::function<size_t(uint32_t)> fn) {
    assignment_ = std::move(fn);
  }
  size_t shard_for(uint32_t node_id) const {
    if (threads_ <= 1) return 0;
    return (assignment_ ? assignment_(node_id) : node_id) % threads_;
  }

  /// Registers a cross-shard fabric (called by Network's constructor).
  void register_parallel_client(ParallelClient* client) {
    clients_.push_back(client);
  }

  /// Schedules `fn` to run at absolute virtual time `t`, in the control
  /// lane: same-tick control events run after deliveries, timers and
  /// dispatches, FIFO among themselves.
  ///
  /// Past times clamp to the present: if `t < now()` the event runs at
  /// now(), ordered FIFO after everything already scheduled for now().
  /// This makes zero-delay self-posts and timers armed from stale state
  /// safe — they can never run before events that were queued first.
  template <typename F>
  void schedule_at(Tick t, F&& fn) {
    queue_.schedule(t < now_ ? now_ : t, EventClass::kControl, std::forward<F>(fn));
  }

  /// Schedules `fn` to run `delay` ticks from now.
  template <typename F>
  void schedule_after(Tick delay, F&& fn) {
    schedule_at(now() + delay, std::forward<F>(fn));
  }

  /// Schedules into a shard's lane (processes and the network use this;
  /// the class encodes the same-tick ordering contract). Clamps against
  /// the owning shard's clock. Callable from the shard's own execution
  /// context or from barrier/control context — never from another shard.
  template <typename F>
  void schedule_shard(size_t shard, EventClass cls, Tick t, F&& fn) {
    if (threads_ <= 1) {
      queue_.schedule(t < now_ ? now_ : t, cls, std::forward<F>(fn));
      return;
    }
    Shard& s = *shards_[shard];
    s.queue.schedule(t < s.now ? s.now : t, cls, std::forward<F>(fn));
  }

  /// Non-null while this thread is executing events of one of this
  /// simulation's shards; used by the network to stage cross-shard
  /// sends. Index is meaningful only when non-null.
  bool in_shard_context() const {
    const Shard* s = tls_shard_;
    return s != nullptr && s->sim == this;
  }
  size_t executing_shard_index() const { return tls_shard_->index; }

  /// Runs one event; returns false if the queue is empty. Serial engine
  /// only (the parallel runner advances through run_until/run_for).
  bool step();

  /// Runs all events with time <= t, then advances the clock to t.
  void run_until(Tick t);

  /// Runs for `duration` ticks of virtual time.
  void run_for(Tick duration) { run_until(now_ + duration); }

  /// Drains the queue completely (use with care — livelocks if events
  /// keep rescheduling themselves).
  void run_to_completion();

  size_t pending_events() const;
  uint64_t events_processed() const;

  /// Windowed-engine counters (all zero after pure-serial runs).
  const EngineStats& engine_stats() const { return engine_stats_; }

  // --- observability ---------------------------------------------------
  // The simulation owns the metrics registry and the protocol trace
  // ring; every process and role publishes through these. Registry
  // ownership (rather than role ownership) is what lets reports outlive
  // the roles whose activity they summarise.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Trace& trace() { return trace_; }
  const obs::Trace& trace() const { return trace_; }

  /// Causal lifecycle spans (off by default; see obs/span.h).
  obs::SpanCollector& spans() { return spans_; }
  const obs::SpanCollector& spans() const { return spans_; }

  /// Online invariant monitors (off by default; see obs/monitor.h).
  obs::MonitorHub& monitors() { return monitors_; }
  const obs::MonitorHub& monitors() const { return monitors_; }

  /// Post-mortem dumper, pre-bound to this simulation's metrics and
  /// trace ring; dumped automatically on the first monitor violation.
  obs::FlightRecorder& flight_recorder() { return recorder_; }

  /// Telemetry plane master switch (off by default). When on, every
  /// Process lazily creates a ScrapeSet (Process::scrape_set()) that
  /// roles register their instruments into, and the harness attaches a
  /// TelemetryAgent per process. Purely message-passing — unlike spans
  /// and monitors it does NOT force the parallel engine onto the serial
  /// fallback. Set before processes register scrape watches (the harness
  /// sets it in the Cluster constructor).
  void set_telemetry_enabled(bool on) { telemetry_enabled_ = on; }
  bool telemetry_enabled() const { return telemetry_enabled_; }

 private:
  /// One shard of the parallel engine: an event queue plus its clock,
  /// owned by exactly one worker thread during a window. The struct is
  /// what the thread-local execution context points at, so now() can
  /// read the shard clock with one load.
  struct Shard {
    EventQueue queue;
    Tick now = 0;
    uint64_t processed = 0;
    Simulation* sim = nullptr;
    size_t index = 0;
  };

  // Thread-local executing-shard context. A plain pointer: null on the
  // control thread outside shard drains, set while a worker (or the
  // control thread, during barrier drains) runs a shard's events.
  static thread_local Shard* tls_shard_;

  void run_until_windowed(Tick t, bool to_completion);
  void execute_window(const std::vector<Tick>& horizons, bool use_workers);
  void run_shard_window(Shard& s, Tick horizon);
  void drain_shards_through(Tick t);
  /// Runs every client's exchange() and tallies whether the barrier did
  /// real work (engine_stats_.exchanges vs .exchanges_skipped).
  void tally_exchange();
  void begin_parallel_run();
  void start_workers();
  void stop_workers();
  void worker_loop(size_t index);

  Tick now_ = 0;
  uint64_t processed_ = 0;
  EventQueue queue_;  // serial engine; control lane when parallel

  // --- parallel state (empty/idle in serial mode) ----------------------
  size_t threads_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<size_t(uint32_t)> assignment_;
  std::vector<ParallelClient*> clients_;
  bool parallel_started_ = false;
  EngineStats engine_stats_;
  // Per-round scratch (coordinator only): next event time and computed
  // horizon per shard, plus the min-plus closure of the lookahead
  // matrix. Members so the window loop never reallocates.
  std::vector<Tick> tmin_scratch_;
  std::vector<Tick> horizon_scratch_;
  std::vector<Tick> closure_scratch_;
  struct WorkerPool;  // threads + barrier state (defined in .cc)
  std::unique_ptr<WorkerPool> pool_;

  bool telemetry_enabled_ = false;

  obs::MetricsRegistry metrics_;
  obs::Trace trace_;
  obs::SpanCollector spans_;
  obs::MonitorHub monitors_;
  obs::FlightRecorder recorder_;
};

}  // namespace epx::sim
