// Learner: a per-stream task hosted inside a replica process.
//
// Delivers decided proposals in instance order to a sink. Handles
//   * live decisions fanned out by the acceptor ring,
//   * gap repair — a missing instance is re-fetched from an acceptor
//     after a short timeout,
//   * catch-up — a learner started for a newly subscribed stream
//     recovers every decided instance from the acceptors' logs, which is
//     the recovery path of Algorithm 1 ("the new learner starts by
//     recovering all messages in S_N").
//
// A replica owns one Learner per subscribed stream (created dynamically
// by the elastic merger) and dispatches stream-tagged messages to it.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "paxos/messages.h"
#include "paxos/params.h"
#include "paxos/slot_log.h"
#include "sim/process.h"

namespace epx::paxos {

class Learner {
 public:
  struct Config {
    StreamId stream = kInvalidStream;
    std::vector<NodeId> acceptors;
    /// Coordinator endpoint for position reports (log trimming);
    /// kInvalidNode disables reporting.
    NodeId coordinator = net::kInvalidNode;
    Params params;
  };

  /// Receives decided proposals in instance order. The pointer is shared
  /// with the acceptor log / decision message — sinks that buffer (the
  /// merger queues) retain it without copying the command batch.
  using ProposalSink = std::function<void(const ProposalPtr&, InstanceId)>;

  Learner(sim::Process* host, Config config, ProposalSink sink);
  /// Invalidates outstanding timers: elastic unsubscribes destroy the
  /// learner while its periodic gap/report timers are still queued.
  ~Learner();

  /// Joins the stream and starts catch-up from `from_instance`
  /// (normally 0; the acceptors' trim horizon is respected).
  void start(InstanceId from_instance = 0);

  /// Leaves the stream; no further proposals are delivered.
  void stop();

  // Message entry points (called by the host's dispatcher).
  void on_decision(const DecisionMsg& msg);
  void on_recover_reply(const RecoverReplyMsg& msg);

  StreamId stream() const { return config_.stream; }
  bool started() const { return started_; }
  /// Next instance the sink has not yet seen.
  InstanceId next_instance() const { return next_; }
  /// True once the learner has drained the acceptors' backlog and is
  /// running on live decisions only.
  bool caught_up() const { return caught_up_; }
  /// Allocated slots of the dense pending ring — bounded by
  /// pending_span(), never by the absolute instance id (pinned by the
  /// elastic-subscribe regression test).
  size_t pending_capacity() const { return pending_.capacity(); }

 private:
  void deliver_ready();
  void request_recovery(InstanceId from, InstanceId to);
  void gap_check();
  void report_position();
  NodeId pick_acceptor();
  /// Width of the dense buffering window above next_: the coordinator's
  /// pipeline window plus recovery-chunk headroom, doubled for slack.
  InstanceId pending_span() const {
    return 2 * (config_.params.window + config_.params.recover_chunk);
  }
  void buffer(InstanceId instance, const ProposalPtr& value);
  void promote_far();
  /// Smallest buffered instance across the ring and the far overlay.
  InstanceId buffered_first() const;
  bool buffered_empty() const { return pending_.empty() && far_.empty(); }

  sim::Process* host_;
  Config config_;
  ProposalSink sink_;

  bool started_ = false;
  bool caught_up_ = false;
  bool recover_inflight_ = false;
  InstanceId next_ = 0;
  /// Out-of-order decisions above next_. Trimmed to next_ whenever the
  /// delivery frontier moves, so nothing at or below a delivered (or
  /// trim-jumped) position is ever retained. The ring only buffers
  /// [next_, next_ + pending_span()): its capacity is O(window), never
  /// O(absolute instance id).
  SlotLog<ProposalPtr> pending_;
  /// Sparse overlay for decisions beyond the dense window — an elastic
  /// subscriber to a mature stream sees live decisions at the current
  /// instance while next_ is still near 0. Parked here (O(buffered
  /// entries), like the pre-ring std::map log) and promoted into the
  /// ring as the frontier advances. Cold path: touched only during
  /// catch-up.
  std::map<InstanceId, ProposalPtr> far_;
  Tick gap_since_ = -1;
  Tick last_progress_ = 0;
  size_t acceptor_rr_ = 0;
  // Registry-owned (outlive this learner), labelled {node=,stream=}.
  obs::Counter* delivered_;    // learner.delivered: proposals handed to the sink
  obs::Counter* gap_repairs_;  // learner.gap_repairs: hole-recovery rounds
  // Invalidates timers after stop() or destruction. Timer lambdas hold
  // the shared counter, so the staleness check never touches `this` on a
  // destroyed learner (they compare *gen_ first and only then call in).
  std::shared_ptr<uint64_t> gen_ = std::make_shared<uint64_t>(0);
};

}  // namespace epx::paxos
