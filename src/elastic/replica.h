// Replica: a simulated process that subscribes to atomic multicast
// streams through Elastic Paxos and executes delivered commands.
//
// Mirrors the paper's replica architecture (Fig. 1): one learner task
// per subscribed stream feeding the deterministic merger (dMerge), which
// hands application commands to the state machine in merged order. The
// merger's hooks create and destroy learner tasks as subscriptions
// change at run time.
//
// Applications either use Replica directly with an app handler (the
// plain-broadcast benchmarks do) or derive from it (the key/value store
// replica adds request execution and multi-partition signals).
#pragma once

#include <map>
#include <memory>

#include "elastic/elastic_merger.h"
#include "multicast/messages.h"
#include "paxos/learner.h"
#include "paxos/stream_directory.h"
#include "sim/process.h"
#include "util/id_window.h"
#include "util/timeseries.h"

namespace epx::elastic {

using net::MessagePtr;
using net::NodeId;

class Replica : public sim::Process {
 public:
  struct Config {
    GroupId group = 0;
    std::vector<StreamId> initial_streams;
    paxos::Params params;
    /// CPU cost of applying one command to the state machine.
    Tick apply_cpu_per_cmd = 50 * kMicrosecond;
    Tick apply_cpu_per_kib = 1 * kMicrosecond;
    /// Reply to cmd.client after applying an app command. Subclasses
    /// that produce their own replies (the KV store) disable this.
    bool send_replies = true;
  };

  /// Application execution hook, called in merged delivery order.
  using AppHandler = std::function<void(const Command&, StreamId)>;
  /// Test/checker tap observing every delivered app command.
  using DeliveryListener = std::function<void(NodeId, const Command&, StreamId)>;

  Replica(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
          const paxos::StreamDirectory* directory, Config config);

  /// Subscribes to the initial streams and starts their learners.
  void start();

  void set_app_handler(AppHandler handler) { app_handler_ = std::move(handler); }
  void set_delivery_listener(DeliveryListener listener) {
    delivery_listener_ = std::move(listener);
  }

  GroupId group() const { return merger_.group(); }
  /// Re-labels the replica's replication group (used when a replica is
  /// carved out into a new shard during online re-partitioning). The
  /// order monitor moves with it: members of the new shard re-register
  /// as each one processes the group-change command, which sits at the
  /// same merged-sequence position everywhere, so their ordinal spaces
  /// agree.
  void set_group(GroupId group) {
    monitors().deregister_replica(merger_.group(), id());
    merger_.set_group(group);
    monitors().register_replica(group, id());
  }

  ElasticMerger& merger() { return merger_; }
  const ElasticMerger& merger() const { return merger_; }

  // --- metrics ------------------------------------------------------------
  // Registry-backed: `replica.delivered{node=}` (plus one
  // `replica.delivered{node=,stream=}` per stream) and
  // `replica.bytes{node=}`.
  uint64_t delivered() const { return delivered_total_->total(); }
  const WindowedCounter& delivery_series() const { return delivered_total_->series(); }

 protected:
  void on_message(NodeId from, const MessagePtr& msg) override;
  /// Non-stream messages (application traffic); default warns.
  virtual void on_app_message(NodeId from, const MessagePtr& msg);
  /// Replicas dispatch in batch mode: decision handlers only feed the
  /// learners and the merger pumps once per batch here, amortising the
  /// per-proposal merge scan across every decision that arrived in the
  /// same dispatch. Subclasses overriding this must call the base.
  void on_batch_end() override;
  void on_crash() override;

  const Config& config() const { return config_; }
  const paxos::StreamDirectory& directory() const { return *directory_; }

 private:
  void start_learner(StreamId stream);
  void stop_learner(StreamId stream);
  void on_deliver(const Command& cmd, StreamId stream);
  void on_control(const Command& cmd);
  obs::Counter& per_stream_counter(StreamId stream);

  const paxos::StreamDirectory* directory_;
  Config config_;
  ElasticMerger merger_;
  std::map<StreamId, std::unique_ptr<paxos::Learner>> learners_;

  AppHandler app_handler_;
  DeliveryListener delivery_listener_;

  // Registry-owned handles; the per-stream handles are cached in a flat
  // vector indexed by stream id so the delivery hot path pays no map
  // lookup.
  obs::Counter* delivered_total_;
  obs::Counter* delivered_bytes_;
  std::vector<obs::Counter*> per_stream_delivered_;

  // Delivery dedup over the last kSeenWindow delivered ids. Client
  // re-sends can legitimately be ordered twice (lost reply,
  // re-partitioning); exactly-once execution is restored here.
  // Deterministic across a group because every member sees the same
  // merged sequence.
  IdWindow seen_;
  bool pump_pending_ = false;  // merger pump deferred to on_batch_end
};

}  // namespace epx::elastic
