// AcceptorStore: the persistence boundary of the acceptor.
//
// Paxos safety rests on two durability obligations: a promise must hit
// stable storage before the Phase1b reply leaves, and an accepted value
// before the vote propagates (Ring Paxos measures exactly this fsync as
// the throughput cliff group commit must amortise). The store captures
// that contract as an append + barrier API:
//
//   * append_*()  — journal a state change (write-ahead: the in-memory
//                   update has already happened when the append is cut),
//   * sync(done)  — run `done` once everything appended so far is
//                   durable. Externally visible sends go through sync;
//                   in-memory state never waits.
//
// Two implementations, one protocol path:
//
//   * NullAcceptorStore — the explicit diskless policy. Appends are
//     dropped, sync runs `done` inline, replay() recovers nothing. A
//     crash loses everything, by construction rather than by a bool.
//   * WalAcceptorStore — write-ahead journal on a simulated
//     sim::StorageDevice. Records become durable in append order when
//     their covering group-commit flush completes; a checkpoint record
//     (promised ballot + trim horizon, cut on every trim) triggers
//     compaction, which folds the journal down to one record per live
//     instance. replay() rebuilds acceptor state from the durable
//     journal; un-flushed appends are lost on power loss.
//
// The journal slab is raw storage managed with new[]/delete[]; epx-lint
// R3 permits that in this file and nowhere else in src/paxos beyond
// slot_log.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "paxos/types.h"
#include "sim/storage.h"

namespace epx::paxos {

/// How an acceptor persists its state. Part of Acceptor::Config; the
/// harness threads it through ClusterOptions.
enum class StoragePolicy {
  kDiskless,  ///< explicit null store: crash loses all acceptor state
  kDurable,   ///< write-ahead journal on a simulated storage device
};

/// State rebuilt from the journal on restart. Entries are sorted by
/// instance and carry only what survived: records below the persisted
/// trim horizon are gone, un-flushed appends never made it.
struct RecoveredState {
  Ballot promised;
  InstanceId trim_horizon = 0;
  struct Entry {
    InstanceId instance = 0;
    Ballot ballot;
    ProposalPtr value;
    bool decided = false;
  };
  std::vector<Entry> entries;
};

class AcceptorStore {
 public:
  virtual ~AcceptorStore() = default;

  virtual bool durable() const = 0;

  /// Journals a promise (Phase 1). Accept records carry their ballot, so
  /// this is only needed when a promise moves without an accept.
  virtual void append_promise(const Ballot& promised) = 0;

  /// Journals one accepted value (Phase 2), decided flag folded in.
  virtual void append_accept(InstanceId instance, const Ballot& ballot,
                             const ProposalPtr& value, bool decided) = 0;

  /// Journals a checkpoint: the promise + trim horizon that replay may
  /// start from. Durable checkpoints trigger journal compaction.
  virtual void append_checkpoint(const Ballot& promised, InstanceId trim_horizon) = 0;

  /// Runs `done` once every record appended so far is durable — inline
  /// if that is already true (always, for the null store). Barriers fire
  /// in FIFO order, interleaved correctly with later appends.
  virtual void sync(std::function<void()> done) = 0;

  /// Host crash: un-flushed appends and pending barriers are lost.
  virtual void on_power_loss() = 0;

  /// Rebuilds acceptor state from the durable journal (synchronous —
  /// the simulated read cost is reported via replay_cost()).
  virtual RecoveredState replay() = 0;

  /// Virtual time a replay() of the current durable journal costs.
  virtual Tick replay_cost() const = 0;
};

/// The explicit diskless policy: nothing is retained across a crash.
class NullAcceptorStore final : public AcceptorStore {
 public:
  bool durable() const override { return false; }
  void append_promise(const Ballot&) override {}
  void append_accept(InstanceId, const Ballot&, const ProposalPtr&, bool) override {}
  void append_checkpoint(const Ballot&, InstanceId) override {}
  void sync(std::function<void()> done) override { done(); }
  void on_power_loss() override {}
  RecoveredState replay() override { return {}; }
  Tick replay_cost() const override { return 0; }
};

/// Write-ahead journal on a simulated storage device.
class WalAcceptorStore final : public AcceptorStore {
 public:
  /// `name` labels the device's and journal's metrics; the acceptor
  /// passes its node name.
  WalAcceptorStore(sim::Process* host, sim::DeviceParams device, const std::string& name);
  ~WalAcceptorStore() override;

  WalAcceptorStore(const WalAcceptorStore&) = delete;
  WalAcceptorStore& operator=(const WalAcceptorStore&) = delete;

  bool durable() const override { return true; }
  void append_promise(const Ballot& promised) override;
  void append_accept(InstanceId instance, const Ballot& ballot, const ProposalPtr& value,
                     bool decided) override;
  void append_checkpoint(const Ballot& promised, InstanceId trim_horizon) override;
  void sync(std::function<void()> done) override;
  void on_power_loss() override;
  RecoveredState replay() override;
  Tick replay_cost() const override;

  sim::StorageDevice& device() { return device_; }

  // --- introspection (tests, benches) -----------------------------------
  /// Records in the durable journal (post-compaction).
  size_t journal_records() const { return len_; }
  /// Appends cut but not yet covered by a completed flush.
  size_t pending_records() const { return pending_.size(); }
  uint64_t compactions() const { return compactions_->total(); }

 private:
  enum class Kind : uint8_t { kPromise, kAccept, kCheckpoint };

  struct Record {
    Kind kind = Kind::kPromise;
    Ballot ballot;
    InstanceId instance = 0;
    ProposalPtr value;
    bool decided = false;
    InstanceId trim_horizon = 0;
    uint64_t bytes = 0;  ///< modelled on-disk footprint of this record
  };

  void append(Record rec);
  /// FIFO completion from the device: the oldest pending record is now
  /// durable. Moves it into the slab and releases satisfied barriers.
  void record_durable();
  /// Folds the journal down to the newest checkpoint plus one record
  /// per live instance (>= the checkpointed trim horizon).
  void compact();
  void push_slab(Record rec);
  void release_slab();

  sim::Process* host_;
  sim::StorageDevice device_;

  // Durable journal: raw growable slab (R3: this file is allowlisted).
  Record* slab_ = nullptr;
  size_t cap_ = 0;
  size_t len_ = 0;
  uint64_t journal_bytes_ = 0;

  /// Appended, waiting for their covering flush (front = oldest). Lost
  /// wholesale on power loss.
  std::deque<Record> pending_;

  struct Barrier {
    uint64_t target;  ///< fire once this many records are durable
    std::function<void()> done;
  };
  std::deque<Barrier> barriers_;
  uint64_t appended_total_ = 0;
  uint64_t durable_total_ = 0;

  // Registry-owned handles, labelled {node=<name>}.
  obs::Counter* appends_;      // wal.appends: records journaled
  obs::Counter* checkpoints_;  // wal.checkpoints: checkpoint records cut
  obs::Counter* compactions_;  // wal.compactions: journal folds completed
  obs::Gauge* bytes_gauge_;    // wal.bytes: durable journal footprint
};

}  // namespace epx::paxos
