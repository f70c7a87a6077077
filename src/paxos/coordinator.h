// Coordinator: the leader of one Paxos stream.
//
// Responsibilities:
//   * batch client commands into instances and pipeline them through the
//     acceptor ring (window-limited),
//   * pace the stream to lambda slots/sec by proposing skip runs every
//     delta_t (paper §III-B/§VII-A) so deterministic merge never stalls
//     on an idle stream,
//   * optionally throttle admission (used by the Fig. 3 experiment),
//   * re-propose instances that time out (message loss),
//   * heartbeat for standby coordinators and take over leadership via
//     phase 1 when the active leader is silent.
#pragma once

#include <deque>
#include <map>

#include "paxos/messages.h"
#include "paxos/params.h"
#include "paxos/slot_log.h"
#include "sim/process.h"
#include "util/id_window.h"

namespace epx::paxos {

class Coordinator : public sim::Process {
 public:
  struct Config {
    StreamId stream = kInvalidStream;
    std::vector<NodeId> acceptors;  ///< ring order
    Params params;
    /// Starts as the active leader (round 1). Standby coordinators
    /// monitor heartbeats and take over on silence.
    bool active = true;
    uint32_t initial_round = 1;
    /// Other coordinator candidates to heartbeat (failover tests).
    std::vector<NodeId> standbys;
  };

  Coordinator(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
              Config config);

  /// Arms timers (batching, pacing, heartbeat/leader monitoring).
  /// Must be called once after construction.
  void start();

  /// start() after `delay`, through the coordinator's own epoch-guarded
  /// timer queue: if the process crashes before the delay elapses the
  /// start is dropped with the epoch, so no raw pointer has to be
  /// captured into a simulation-level timer (epx-lint R5).
  void start_after(Tick delay);

  /// Sends a TrimRequest(up_to) to every acceptor of the stream.
  void request_trim(InstanceId up_to);

  // --- introspection ------------------------------------------------------
  StreamId stream() const { return config_.stream; }
  bool is_active() const { return active_; }
  const Ballot& ballot() const { return ballot_; }
  InstanceId next_instance() const { return next_instance_; }
  uint64_t commands_proposed() const { return commands_->total(); }
  uint64_t skip_slots_proposed() const { return skips_->total(); }
  size_t outstanding() const { return outstanding_.size(); }
  /// Live entries in the duplicate-suppression structure (tests assert
  /// the admitted-rate x dedup_ttl bound).
  size_t dedup_size() const { return recent_ids_.size(); }

  /// Changes the admission throttle at run time (harness use).
  void set_admission_rate(double commands_per_sec);

  /// Registers another coordinator candidate to heartbeat (failover).
  void add_standby(NodeId standby) { config_.standbys.push_back(standby); }

 protected:
  void on_message(NodeId from, const net::MessagePtr& msg) override;
  void on_crash() override;
  void on_restart() override;

 private:
  struct Outstanding {
    ProposalPtr value;  ///< frozen at flush; retries re-send the same allocation
    Tick proposed_at = 0;
    int attempts = 0;
  };

  void handle_client_propose(NodeId from, const ClientProposeMsg& msg);
  void handle_decision(const DecisionMsg& msg);
  void handle_phase1b(const Phase1bMsg& msg);
  void handle_heartbeat(const CoordHeartbeatMsg& msg);
  void handle_learner_report(const LearnerReportMsg& msg);
  void trim_tick();

  void admit_pending();
  void batch_tick();
  void flush_batches();
  void propose(Proposal value);
  void send_accept(InstanceId instance, const ProposalPtr& value);
  void pacing_tick();
  void retry_tick();
  void heartbeat_tick();
  void leader_monitor_tick();
  void begin_takeover();
  void finish_takeover();
  bool dedup_seen(uint64_t command_id);
  void expire_dedup();

  Config config_;
  Ballot ballot_;
  bool active_ = false;

  // Proposer pipeline.
  InstanceId next_instance_ = 0;
  SlotIndex next_slot_ = 0;
  std::deque<Command> pending_;    ///< admitted, waiting for a batch
  std::deque<Command> throttled_;  ///< waiting for admission tokens
  size_t pending_bytes_ = 0;
  Tick oldest_pending_since_ = 0;
  SlotLog<Outstanding> outstanding_;

  // Admission token bucket.
  double tokens_ = 0.0;
  Tick last_refill_ = 0;

  // Pacing.
  uint64_t slots_this_window_ = 0;

  // Decision tracking. Out-of-order decisions above the contiguous
  // frontier live in a bitmap ring over the pipeline window.
  InstanceId decided_contiguous_ = 0;
  SlotBitmap decided_sparse_;

  // Duplicate suppression for client re-sends; each id is stamped with
  // its first-seen time for the dedup_ttl expiry.
  IdWindow recent_ids_;

  // Failover.
  Tick last_leader_sign_of_life_ = 0;
  NodeId last_known_leader_ = net::kInvalidNode;
  uint32_t max_round_seen_ = 0;
  // Ordered: finish_takeover() iterates the quorum's replies and the
  // adopted value must not depend on hash order (epx-lint R2).
  std::map<NodeId, Phase1bMsg> phase1_replies_;
  bool takeover_in_progress_ = false;

  // Auto-trim state: learner id -> (position, last report time).
  // Ordered: trim_tick() iterates to find the slowest learner (epx-lint R2).
  std::map<NodeId, std::pair<InstanceId, Tick>> learner_positions_;
  InstanceId last_trim_ = 0;

  // Registry-owned handles, all labelled {stream=<id>}.
  obs::Counter* commands_;   // coord.commands: client commands proposed
  obs::Counter* skips_;      // coord.skips: skip slots proposed for pacing
  obs::Counter* retries_;    // coord.retries: accept re-sends after timeout
  obs::Counter* takeovers_;  // coord.takeovers: phase-1 rounds started
  obs::Gauge* trim_pos_;     // coord.trim: last trim position requested
};

}  // namespace epx::paxos
