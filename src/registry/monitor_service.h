// MonitorService + TelemetryAgent: the in-sim monitoring plane
// (DESIGN.md §16).
//
// A TelemetryAgent is a role hosted inside any simulated process. On a
// virtual-time timer (default 100 ms sim time) it snapshots the host's
// ScrapeSet — counters as window deltas, gauges as last-value/high-water,
// timers as windowed p50/p95/p99 via the histogram sketches — and ships
// the sample to the MonitorService as a kTelemetrySample message through
// the simulated network. Observation is therefore part of the workload:
// it costs agent CPU, NIC bandwidth and monitor CPU, exactly like a
// production scrape path, and it is deterministic on both engines.
//
// The MonitorService ingests samples into its TimeSeriesStore, evaluates
// the SloEngine rules on every sample, and on a violation records an
// `slo.violation` trace event, bumps `slo.violations` and arms the
// flight recorder so the dump carries the telemetry windows that explain
// the breach (in parallel runs the dump is deferred to the next safe
// point — see flush_pending_dumps()).
//
// Crash semantics: an agent's tick runs through Process::after, so a
// host crash silently cancels the pending scrape — no partial window is
// ever emitted. The harness re-arms the agent from the host's restart
// listener; the first post-restart window starts at the restart instant
// (the outage is not folded into a bogus giant delta).
#pragma once

#include <memory>
#include <string>

#include "obs/telemetry.h"
#include "registry/messages.h"
#include "sim/process.h"

namespace epx::registry {

class MonitorService : public sim::Process {
 public:
  MonitorService(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name);

  obs::TimeSeriesStore& store() { return store_; }
  const obs::TimeSeriesStore& store() const { return store_; }
  obs::SloEngine& slo() { return slo_; }
  const obs::SloEngine& slo() const { return slo_; }

  /// Flight dumps triggered from a shard worker (parallel engine) are
  /// deferred: the recorder reads the whole registry, which is only safe
  /// with the shards quiescent. Call after run_for()/run_until() returns
  /// (TelemetryFlags::finish does); serial runs dump inline and this is
  /// a no-op.
  void flush_pending_dumps();

 protected:
  void on_message(NodeId from, const net::MessagePtr& msg) override;

 private:
  void on_violation(const obs::SloViolation& v);

  obs::TimeSeriesStore store_;
  obs::SloEngine slo_;
  std::string pending_dump_reason_;  ///< first deferred violation, if any
  Tick pending_dump_time_ = 0;
  bool dumped_ = false;  ///< one dump per run, like the MonitorHub

  obs::Counter* samples_;     // telemetry.samples: scrape messages ingested
  obs::Counter* points_;      // telemetry.points: series points ingested
  obs::Counter* violations_;  // slo.violations: SLO rules fired
};

/// Per-process scrape role. Owns nothing but its timer bookkeeping: the
/// ScrapeSet lives on the host process (roles register instruments
/// there), and instruments live in the registry.
class TelemetryAgent {
 public:
  struct Options {
    Tick interval = 100 * kMillisecond;  ///< virtual-time scrape period
    NodeId collector = net::kInvalidNode;
  };

  TelemetryAgent(sim::Process* host, Options options)
      : host_(host), options_(options) {}

  /// (Re)starts scraping: re-baselines the host's ScrapeSet so the next
  /// window begins now, and arms the timer. Safe to call from a restart
  /// listener; a pending pre-crash tick was epoch-cancelled by the crash.
  void start();

  Tick interval() const { return options_.interval; }

 private:
  void tick();

  sim::Process* host_;
  Options options_;
  uint64_t seq_ = 0;
  uint64_t gen_ = 0;  ///< liveness token for timer callbacks
  Tick window_start_ = 0;
};

}  // namespace epx::registry
