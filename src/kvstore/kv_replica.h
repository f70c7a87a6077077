// KvReplica: a replica of one hash-partitioned shard of the key/value
// store (paper §VI).
//
// Single-partition commands (put/get) execute immediately in merged
// delivery order; commands whose key the replica does not own are
// discarded — the client re-sends to the correct partition after a
// timeout (paper §VII-D). A payload that does not decode changes
// nothing and gets a reply with a non-zero status. Multi-partition
// commands (getrange) arrive on the shared stream at every replica and
// are coordinated with direct signal messages: execution blocks until
// every other involved partition has signalled delivery, which
// preserves linearizability across shards. Signals wait in a
// SignalTable until their getrange executes. One signal per partition
// unblocks it, so the signals of a partition's other replicas arrive
// after it ran; the replica remembers the getranges it executed and
// drops those late signals instead of storing them.
//
// Replies share the store's bytes: a get's reply views the stored
// value and a getrange's reply lists the range's pairs (net::SharedBody).
//
// The replica also serves snapshots (store + merger cut) for state
// transfer when a new replica joins the group.
#pragma once

#include <deque>

#include "elastic/replica.h"
#include "kvstore/kv_messages.h"
#include "kvstore/kv_op.h"
#include "kvstore/kv_store.h"
#include "kvstore/partition_map.h"
#include "kvstore/signal_table.h"
#include "util/id_window.h"

namespace epx::kv {

using elastic::Command;
using net::MessagePtr;
using net::NodeId;
using paxos::StreamId;

struct PeerReplica {
  NodeId node = net::kInvalidNode;
  uint32_t partition_id = 0;
};

class KvReplica : public elastic::Replica {
 public:
  struct KvConfig {
    uint32_t partition_id = 1;
    uint64_t hash_lo = 0;
    uint64_t hash_hi = ~0ULL;
    /// CPU cost per key visited by a getrange scan.
    Tick scan_cpu_per_key = 1 * kMicrosecond;
  };

  KvReplica(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
            const paxos::StreamDirectory* directory, Replica::Config base,
            KvConfig kv_config);

  // --- administration ----------------------------------------------------
  /// Changes this replica's owned hash range + partition identity (online
  /// re-partitioning). Does not touch the store; call purge_unowned()
  /// once the old partition's stream is unsubscribed.
  void set_ownership(uint32_t partition_id, uint64_t hash_lo, uint64_t hash_hi);
  /// Replicas of *other* partitions to exchange getrange signals with.
  void set_peers(std::vector<PeerReplica> peers);
  /// Removes keys outside the owned range; returns how many.
  size_t purge_unowned();

  // --- introspection -------------------------------------------------------
  uint32_t partition_id() const { return kv_config_.partition_id; }
  bool owns(uint64_t hash) const {
    return hash >= kv_config_.hash_lo && hash <= kv_config_.hash_hi;
  }
  const KvStore& store() const { return store_; }
  // Registry-backed: `kv.executed{node=}`, `kv.discarded{node=}`.
  uint64_t executed() const { return executed_->total(); }
  uint64_t discarded_wrong_partition() const { return discarded_->total(); }
  const WindowedCounter& executed_series() const { return executed_->series(); }
  /// Getrange signals waiting for a getrange that has not executed here.
  size_t pending_signals() const { return signals_.size(); }

  /// Installs a snapshot (store + merger cut) received from a peer; used
  /// when this replica joins an existing group. Must be called before
  /// start().
  void install_snapshot(const SnapshotReplyMsg& snapshot);

  /// Full join protocol: requests a snapshot from `donor`, installs it
  /// on arrival (retrying while the donor is mid-subscription), and
  /// resumes delivery at the donor's cut. Use instead of start() for a
  /// replica joining a running group (paper §VI: "Adding a new replica
  /// to a replication group is part of Elastic Paxos's recovery
  /// procedure").
  void join_via(NodeId donor);
  bool joined() const { return joined_; }

  /// Adds a peer's key/value pairs to the local store. With
  /// `overwrite` false, existing keys win — the correct mode when
  /// absorbing an older shard's data after a merge (local values are
  /// newer by construction).
  void absorb_store(const std::string& encoded_pairs, bool overwrite);

 protected:
  void on_app_message(NodeId from, const MessagePtr& msg) override;

 private:
  struct PendingExec {
    Command cmd;
    KvOp op;  ///< views into cmd.payload
    bool signalled = false;  ///< our signal batch was sent
  };

  void on_kv_deliver(const Command& cmd);
  void drain_exec_queue();
  void execute(const Command& cmd, const KvOp& op);
  void execute_single(const Command& cmd, const KvOp& op);
  void execute_getrange(const Command& cmd, const KvOp& op);
  bool signals_complete(uint64_t command_id) const;
  void reply(const Command& cmd, uint8_t status, net::SharedBody payload = {});

  /// Signals for commands that never materialise here (duplicates,
  /// commands discarded below a merge point) age out at this bound.
  static constexpr size_t kSignalCap = 1 << 16;
  /// Executed getranges remembered to recognise late signals: seconds of
  /// peer lag at the benchmark's getrange rate. A signal later than that
  /// waits in the table until the cap evicts it.
  static constexpr size_t kExecutedRangeWindow = 1 << 12;

  KvConfig kv_config_;
  KvStore store_;
  std::vector<PeerReplica> peers_;
  std::deque<PendingExec> exec_queue_;
  SignalTable signals_{kSignalCap};
  IdWindow executed_ranges_{kExecutedRangeWindow};

  NodeId join_donor_ = net::kInvalidNode;
  bool joined_ = false;
  uint64_t join_request_id_ = 0;

  // Registry-owned handles, labelled {node=<name>}.
  obs::Counter* executed_;        // kv.executed: ops applied to the store
  obs::Counter* discarded_;       // kv.discarded: wrong-partition discards
  obs::Counter* signals_sent_;    // kv.signals: getrange signals sent to peers
  obs::Counter* snapshot_bytes_;  // kv.snapshot_bytes: snapshot payload served
};

}  // namespace epx::kv
