// ElasticMerger: the deterministic merge of Elastic Paxos (Algorithm 1).
//
// Extends lock-step round-robin delivery with dynamic subscriptions:
//
//   subscribe_msg(G, S_N)  — multicast to BOTH the new stream S_N and one
//     currently subscribed stream S. When the copy in S is delivered, the
//     merger spawns a learner for S_N and scans S_N (delivery of all
//     other streams pauses — the Fig. 3 stall) until it finds the same
//     request at slot b. The merge point is
//         M = max(b + 1, max over S' in Sigma of ptr[S'])
//     (the "max(10,10)" / "max(12,13)" of Fig. 2). Slots of S_N below M
//     are discarded; the subscribed streams keep delivering until every
//     one of them reaches M; then S_N joins Sigma and round-robin
//     restarts from the first stream.
//
//   unsubscribe_msg(G, S)  — multicast to any subscribed stream; takes
//     effect the moment it is delivered in the merged order.
//
//   prepare_msg(G, S_N)    — optimisation (paper §V-C): start the S_N
//     learner early so it catches up in the background and the later
//     subscribe finds the stream already buffered (the Fig. 5 flat line).
//
// Each control request takes effect at most once per merger: a re-sent
// copy ordered after a later reconfiguration is ignored.
//
// Delivery order is always lexicographic in (slot index, stream id);
// merge-point alignment guarantees replicas join streams at consistent
// indexes, which yields pairwise-consistent (acyclic) delivery across
// groups — the atomic multicast ordering property.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "multicast/stream_queue.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"

namespace epx::elastic {

using multicast::Command;
using multicast::StreamQueue;
using paxos::CommandKind;
using paxos::GroupId;
using paxos::SlotIndex;
using paxos::StreamId;

class ElasticMerger {
 public:
  enum class Phase { kNormal, kScanning, kAligning };

  struct Hooks {
    /// Create and start a learner feeding queue(stream).
    std::function<void(StreamId)> start_learner;
    /// Stop and destroy the learner of an unsubscribed stream.
    std::function<void(StreamId)> stop_learner;
    /// Application command, in merged delivery order.
    std::function<void(const Command&, StreamId)> deliver;
    /// Control command addressed to this group, fired when it takes
    /// effect (subscription completed / stream removed / prepare seen).
    std::function<void(const Command&)> control;
  };

  /// Observability handles, bound by the hosting replica. The merger is
  /// not a Process, so its host supplies registry handles, the trace
  /// ring and a virtual clock. All optional: an unbound merger (unit
  /// tests) records nothing.
  struct Instruments {
    obs::Counter* discarded = nullptr;        ///< merge.discarded{node=}
    obs::Counter* scan_slots = nullptr;       ///< merge.scan_slots{node=}
    obs::Timer* subscribe_latency = nullptr;  ///< merge.subscribe_latency{node=}
    obs::Trace* trace = nullptr;
    std::function<Tick()> clock;
    uint32_t node = 0;  ///< NodeId stamped on trace events
    /// Alignment monitor, told the merge point this member computed for
    /// each subscribe command (paper Fig. 2 consistency check).
    obs::MonitorHub* monitors = nullptr;
  };

  ElasticMerger(GroupId group, Hooks hooks);

  void bind_instruments(Instruments instruments) { obs_ = std::move(instruments); }

  /// Installs the initial subscriptions (the "default stream(s)") and
  /// starts their learners. Call once before the first pump().
  void bootstrap(const std::vector<StreamId>& initial);

  /// Restores the merger at a consistent cut received from a peer
  /// (replica join / state transfer): subscribes to the cut's streams,
  /// fast-forwards each queue to the peer's next slot index, and resumes
  /// round-robin at `next_stream`. Call instead of bootstrap(); the
  /// application state covering everything before the cut must be
  /// installed separately (e.g. a KV snapshot).
  void restore(const std::vector<std::pair<StreamId, SlotIndex>>& cut,
               StreamId next_stream);

  /// Stream the next round-robin turn will consume (for snapshot cuts).
  StreamId current_stream() const {
    return sigma_.empty() ? paxos::kInvalidStream : sigma_[rr_];
  }

  /// This replica's replication group (subscription requests for other
  /// groups are ignored). Re-labelling is used by online re-partitioning.
  GroupId group() const { return group_; }
  void set_group(GroupId group) { group_ = group; }

  /// Queue for a stream's learner to feed; created on demand.
  StreamQueue& queue(StreamId stream);

  /// Drains every deliverable slot; call whenever a queue grows.
  void pump();

  // --- introspection -----------------------------------------------------
  Phase phase() const { return phase_; }
  const std::vector<StreamId>& subscriptions() const { return sigma_; }
  bool subscribed_to(StreamId stream) const;
  SlotIndex merge_point() const { return merge_point_; }
  StreamId pending_stream() const { return pending_sn_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t discarded() const { return discarded_; }

 private:
  bool step_normal();
  bool step_scanning();
  bool step_aligning();
  /// Moves the round-robin cursor to the stream after `current`
  /// (ascending-id order, wrapping to the next round).
  void advance_from(StreamId current);
  /// Refreshes sigma_qs_ after sigma_ changes.
  void rebuild_sigma_queues();
  /// Applies a control command addressed to this group.
  void handle_control(const Command& cmd);
  void begin_subscription(const Command& cmd);
  void apply_unsubscribe(const Command& cmd);
  void complete_subscription();

  GroupId group_;
  Hooks hooks_;
  std::vector<StreamId> sigma_;  // ascending stream-id order
  std::vector<StreamQueue*> sigma_qs_;  // parallel to sigma_, pump's hot view
  std::map<StreamId, std::unique_ptr<StreamQueue>> queues_;
  std::set<StreamId> learners_running_;
  size_t rr_ = 0;
  Phase phase_ = Phase::kNormal;

  /// Current virtual time, 0 when no clock is bound.
  Tick mnow() const { return obs_.clock ? obs_.clock() : 0; }
  void trace_event(obs::TraceKind kind, StreamId stream, uint64_t a, uint64_t b = 0);

  // Pending subscription (kScanning / kAligning).
  Command pending_cmd_;
  StreamId pending_sn_ = paxos::kInvalidStream;
  SlotIndex merge_point_ = 0;
  Tick scan_begin_ = 0;  ///< when the pending subscription started scanning
  std::deque<Command> deferred_subscribes_;
  /// Control command ids already handled: each takes effect at most once.
  std::set<uint64_t> handled_controls_;

  Instruments obs_;

  uint64_t delivered_ = 0;
  uint64_t discarded_ = 0;
};

}  // namespace epx::elastic
