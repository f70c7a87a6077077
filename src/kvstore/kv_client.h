// KvClient: closed-loop key/value workload driver.
//
// Each thread keeps one operation outstanding (the loop, its latency
// instruments and its retries are multicast::ClosedLoopClient). Routing
// consults the partition map cached from the registry (clients are
// "notified about the change in the partitioning by ZooKeeper", paper
// §VII-D); a command that lands on the wrong partition is silently
// discarded there and re-sent after the retry timeout through the
// refreshed map — producing the ~1 s re-partitioning gap of Fig. 4.
//
// getrange operations are multicast to the shared stream and complete
// once one reply has arrived from every partition in the current map.
// The client counts replies per partition; it does not keep the returned
// pairs.
#pragma once

#include "checker/linearizability.h"
#include "kvstore/kv_op.h"
#include "kvstore/partition_map.h"
#include "multicast/closed_loop_client.h"
#include "multicast/messages.h"
#include "registry/client.h"
#include "util/rng.h"

namespace epx::kv {

using net::MessagePtr;
using net::NodeId;
using paxos::StreamId;

class KvClient : public multicast::ClosedLoopClient {
 public:
  struct Config : ClosedLoopClient::Config {
    NodeId registry = net::kInvalidNode;
    size_t key_space = 10000;
    size_t value_bytes = 1024;
    /// Operation mix; must sum to <= 1.0, remainder goes to puts.
    double get_ratio = 0.0;
    double getrange_ratio = 0.0;
    size_t range_span = 50;  ///< keys covered by one getrange
    uint64_t seed = 7;
    /// Record an operation history for the linearizability checker
    /// (tests only — histories grow with the run).
    bool record_history = false;
  };

  KvClient(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
           const paxos::StreamDirectory* directory, Config config);

  const checker::LinearizabilityChecker& history() const { return history_; }
  const PartitionMap& partition_map() const { return map_; }

  static std::string key_name(size_t index);

 protected:
  /// Registers the partition-map watch; threads launch once the first
  /// map has arrived.
  void launch() override;
  void prepare(size_t thread, paxos::Command& cmd) override;
  StreamId route(size_t thread) override;
  void on_message(NodeId from, const MessagePtr& msg) override;

 private:
  struct Pending {
    KvOp op;  ///< views into the command's payload
    /// Partitions that answered a getrange: at most partition_count()
    /// of them, so a scan of a reused vector finds a repeat.
    std::vector<uint32_t> shards_received;
    size_t shards_expected = 1;
  };

  std::string make_payload(uint64_t cmd_id);

  Config config_;
  registry::RegistryClient registry_client_;
  PartitionMap map_;
  StreamId global_stream_ = paxos::kInvalidStream;
  Rng rng_;
  std::vector<Pending> pending_;  ///< per thread
  std::string value_;    // scratch for the put value being encoded
  checker::LinearizabilityChecker history_;
};

}  // namespace epx::kv
