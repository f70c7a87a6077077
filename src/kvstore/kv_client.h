// KvClient: closed-loop key/value workload driver.
//
// Each thread keeps one operation outstanding. Routing consults the
// partition map cached from the registry (clients are "notified about
// the change in the partitioning by ZooKeeper", paper §VII-D); a command
// that lands on the wrong partition is silently discarded there and
// re-sent after the retry timeout through the refreshed map — producing
// the ~1 s re-partitioning gap of Fig. 4.
//
// getrange operations are multicast to the shared stream and complete
// once one reply has arrived from every partition in the current map.
// The client counts replies per partition; it does not keep the returned
// pairs.
#pragma once

#include "checker/linearizability.h"
#include "kvstore/kv_op.h"
#include "kvstore/partition_map.h"
#include "multicast/messages.h"
#include "multicast/retry_queue.h"
#include "paxos/messages.h"
#include "paxos/stream_directory.h"
#include "registry/client.h"
#include "sim/process.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/timeseries.h"

namespace epx::kv {

using net::MessagePtr;
using net::NodeId;
using paxos::StreamId;

class KvClient : public sim::Process {
 public:
  struct Config {
    size_t threads = 1;
    NodeId registry = net::kInvalidNode;
    size_t key_space = 10000;
    size_t value_bytes = 1024;
    /// Operation mix; must sum to <= 1.0, remainder goes to puts.
    double get_ratio = 0.0;
    double getrange_ratio = 0.0;
    size_t range_span = 50;  ///< keys covered by one getrange
    Tick retry_timeout = 1 * kSecond;
    /// Pause between a reply and the thread's next operation (0 = pure
    /// closed loop). Used to pin benchmarks at a fraction of peak load.
    Tick think_time = 0;
    uint64_t seed = 7;
    /// Record an operation history for the linearizability checker
    /// (tests only — histories grow with the run).
    bool record_history = false;
  };

  KvClient(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
           const paxos::StreamDirectory* directory, Config config);

  /// Registers the partition-map watch and launches all threads.
  void start();
  void stop();

  // --- metrics ---------------------------------------------------------
  // Registry-backed: `client.latency{node=}` (timer),
  // `client.completions{node=}` and `client.retries{node=}` (counters).
  const Histogram& latency() const { return latency_->total(); }
  /// Windowed latency timer (bounded ring; latency-over-time panels).
  const obs::Timer& latency_timer() const { return *latency_; }
  const WindowedCounter& completions() const { return completions_->series(); }
  uint64_t completed() const { return completions_->total(); }
  uint64_t retries() const { return retries_->total(); }
  const checker::LinearizabilityChecker& history() const { return history_; }
  const PartitionMap& partition_map() const { return map_; }

  static std::string key_name(size_t index);

 protected:
  void on_message(NodeId from, const MessagePtr& msg) override;

 private:
  struct Outstanding {
    paxos::Command cmd;
    KvOp op;  ///< views into cmd.payload
    Tick sent_at = 0;
    /// Partitions that answered a getrange: at most partition_count()
    /// of them, so a scan of a reused vector finds a repeat.
    std::vector<uint32_t> shards_received;
    size_t shards_expected = 1;
  };

  void issue(size_t thread_index);
  void dispatch(size_t thread_index);
  void complete(size_t thread_index, std::string_view get_value);
  std::string make_payload();

  const paxos::StreamDirectory* directory_;
  Config config_;
  registry::RegistryClient registry_client_;
  PartitionMap map_;
  StreamId global_stream_ = paxos::kInvalidStream;
  Rng rng_;
  bool running_ = false;
  uint32_t seq_ = 1;

  std::vector<Outstanding> threads_;
  /// Per thread, the id of its unanswered command (0: none). Replies
  /// find their thread by a scan; a late or duplicate one finds none.
  std::vector<uint64_t> awaiting_;
  multicast::RetryQueue retry_queue_;
  std::string value_;  // scratch for the put value being encoded

  // Registry-owned handles, labelled {node=<name>}.
  obs::Timer* latency_;
  obs::Counter* completions_;
  obs::Counter* retries_;
  checker::LinearizabilityChecker history_;
};

}  // namespace epx::kv
