// Acceptor: stores the state of one Paxos stream.
//
// Acceptors form a ring (Ring Paxos, paper §VI): phase-2a Accept messages
// enter at the ring head and travel along it, each hop adding one accept
// vote; the acceptor whose vote completes the quorum emits the Decision
// to the stream's registered learners. The acceptor log supports learner
// catch-up (RecoverRequest) and trimming, which is what dynamic
// subscription's recovery path relies on (paper §VI).
//
// Persistence runs through an AcceptorStore: in-memory state updates are
// synchronous, but every externally visible send (Phase1b reply, ring
// forward, decision fan-out, recovery reply) waits behind the store's
// durability barrier. With the diskless policy the barrier is inline and
// the event schedule is unchanged; with the durable policy the sends
// depart when the write-ahead journal's covering fsync completes, and a
// restarted acceptor rebuilds its state by replaying that journal.
#pragma once

#include <memory>
#include <set>

#include "paxos/acceptor_store.h"
#include "paxos/messages.h"
#include "paxos/params.h"
#include "paxos/slot_log.h"
#include "sim/process.h"
#include "sim/storage.h"

namespace epx::paxos {

class Acceptor : public sim::Process {
 public:
  struct Config {
    StreamId stream = kInvalidStream;
    Params params;
    /// Persistence policy. Diskless (the default) keeps the historical
    /// zero-cost behaviour: a crash loses all acceptor state.
    StoragePolicy storage = StoragePolicy::kDiskless;
    /// Journal device model, used when storage == kDurable.
    sim::DeviceParams device;
  };

  Acceptor(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
           Config config);

  /// Wires the ring: Accept messages are forwarded to `successor`
  /// (kInvalidNode for the ring tail).
  void set_ring_successor(NodeId successor) { successor_ = successor; }
  void set_quorum(size_t quorum) { quorum_ = quorum; }

  /// Replaces the store (e.g. a slow-disk device on one ring member).
  /// Call before the acceptor has journaled anything worth keeping: the
  /// old journal is discarded.
  void set_storage(StoragePolicy policy, sim::DeviceParams device = {});

  // --- introspection (tests, harness) -----------------------------------
  StreamId stream() const { return config_.stream; }
  StoragePolicy storage_policy() const { return config_.storage; }
  /// The active store; WAL-specific stats via dynamic_cast or wal_store().
  AcceptorStore& store() { return *store_; }
  /// The WAL store, or nullptr under the diskless policy.
  WalAcceptorStore* wal_store();
  const Ballot& promised() const { return promised_; }
  InstanceId trim_horizon() const { return trim_horizon_; }
  /// Lowest instance such that everything below it is decided locally.
  InstanceId decided_contiguous() const { return decided_contiguous_; }
  size_t log_size() const { return log_.size(); }
  bool has_decided(InstanceId instance) const;
  size_t learner_count() const { return learners_.size(); }

 protected:
  void on_message(NodeId from, const net::MessagePtr& msg) override;
  void on_crash() override;
  void on_restart() override;

 private:
  struct Entry {
    Ballot value_ballot;
    ProposalPtr value;  ///< shared with the Accept that carried it
    bool decided = false;
  };

  void handle_phase1a(NodeId from, const Phase1aMsg& msg);
  void handle_accept(const AcceptMsg& msg);
  /// Externally visible half of an accept — decision fan-out and ring
  /// forward — run once the journal record is durable. Captures values,
  /// not log references: the entry may move or be trimmed while the
  /// flush is in flight.
  void finish_accept(InstanceId instance, Ballot ballot, ProposalPtr value,
                     ProposalPtr stored, uint32_t count, bool was_decided);
  void handle_recover(NodeId from, const RecoverRequestMsg& msg);
  void handle_trim(const TrimRequestMsg& msg);
  void advance_decided_contiguous();
  void charge_value_cpu(const Proposal& value);
  std::unique_ptr<AcceptorStore> make_store();

  Config config_;
  NodeId successor_ = net::kInvalidNode;
  size_t quorum_ = 2;

  // Registry-owned handles, labelled {node=<name>}.
  obs::Counter* decisions_;   // acceptor.decisions: quorum completions published
  obs::Counter* recoveries_;  // acceptor.recoveries: catch-up requests served
  obs::Counter* replays_;     // acceptor.replays: journal replays on restart

  std::unique_ptr<AcceptorStore> store_;
  Ballot promised_;
  SlotLog<Entry> log_;
  InstanceId trim_horizon_ = 0;
  InstanceId decided_contiguous_ = 0;
  std::set<NodeId> learners_;
};

}  // namespace epx::paxos
