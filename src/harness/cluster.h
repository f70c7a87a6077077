// Cluster: experiment scaffolding that wires simulated processes into a
// running system — streams (coordinator + acceptor ring), replicas,
// controllers — and owns their lifetimes.
//
// Node-id allocation, ring wiring, learner registration and directory
// upkeep all live here so tests and benchmarks stay declarative. The
// provisioning delay models the paper's observation that booting a new
// stream's VMs takes ~60 s (§VI): a stream created with a delay exists
// in the directory but its processes only start answering after the
// delay elapses.
#pragma once

#include <memory>
#include <vector>

#include "elastic/controller.h"
#include "elastic/replica.h"
#include "paxos/acceptor.h"
#include "paxos/coordinator.h"
#include "paxos/stream_directory.h"
#include "registry/monitor_service.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace epx::harness {

using net::NodeId;
using paxos::GroupId;
using paxos::StreamId;

/// Process-wide default for ClusterOptions.threads == 0 (initially 1,
/// the serial engine). Test binaries override it at static-init from
/// EPX_FORCE_THREADS (tests/force_threads.cc — getenv is banned inside
/// src/), and bench drivers from --threads.
size_t default_threads();
void set_default_threads(size_t n);

struct ClusterOptions {
  uint64_t seed = 1;
  /// Simulation worker threads; 0 = use default_threads(). Values > 1
  /// select the parallel engine (identical results, see DESIGN.md §13).
  size_t threads = 0;
  sim::LinkParams link{200 * kMicrosecond, 50 * kMicrosecond};
  /// Region topology (DESIGN.md §17). When populated (region_count() >
  /// 0) the cluster installs it as the network's default link layer and
  /// node allocation turns region-affine: call set_build_region() before
  /// building each region's processes so they are placed in — and
  /// sharded with — that region. Whole regions share an engine shard,
  /// so every cross-shard path is a WAN link and the parallel engine's
  /// windows open to WAN width. Left empty (the default), the cluster
  /// is flat and `link` applies to every pair.
  sim::Topology topology;
  /// Per-node NIC egress bandwidth in bits/sec (0 = unlimited).
  double node_bandwidth_bps = 0.0;
  paxos::Params params;
  size_t acceptors_per_stream = 3;  ///< paper §VII: 3 acceptor VMs per stream
  /// Acceptor persistence policy, applied to every stream's ring
  /// (per-acceptor overrides via Acceptor::set_storage). Diskless by
  /// default — durable runs opt in and pay the journal's fsyncs.
  paxos::StoragePolicy storage = paxos::StoragePolicy::kDiskless;
  /// Journal device model used when storage == kDurable.
  sim::DeviceParams storage_device;
  /// Replica state-machine apply costs (used by add_replica and the KV
  /// cluster builder).
  Tick apply_cpu_per_cmd = 50 * kMicrosecond;
  Tick apply_cpu_per_kib = 1 * kMicrosecond;

  /// In-sim telemetry plane (DESIGN.md §16). When enabled the cluster
  /// creates a MonitorService node and attaches a TelemetryAgent to
  /// every process it builds; scrapes travel through the simulated
  /// network and cost CPU/bandwidth like any other traffic, so the
  /// default (disabled) run is byte-identical to pre-telemetry builds.
  struct TelemetryOptions {
    bool enabled = false;
    Tick interval = 100 * kMillisecond;  ///< virtual-time scrape period
  };
  TelemetryOptions telemetry;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation& sim() { return sim_; }
  sim::Network& net() { return net_; }
  paxos::StreamDirectory& directory() { return directory_; }
  const ClusterOptions& options() const { return options_; }

  /// Creates a stream: one coordinator plus an acceptor ring, started
  /// immediately. Returns the stream id.
  StreamId add_stream();

  /// Same, but the coordinator only starts after `provisioning_delay`
  /// (Heat-AutoScaling model).
  StreamId add_stream_after(Tick provisioning_delay);

  /// Adds a standby coordinator to a stream (failover tests). It
  /// monitors the active leader's heartbeats and takes over via phase 1
  /// on silence. The caller updates the directory after a failover.
  paxos::Coordinator* add_standby_coordinator(StreamId stream);

  /// Creates a replica in `group`, initially subscribed to `streams`.
  elastic::Replica* add_replica(GroupId group, std::vector<StreamId> streams);
  elastic::Replica* add_replica(elastic::Replica::Config config);

  /// Adopts an externally constructed process (e.g. a KV replica or
  /// client subclass); the cluster owns it from then on. Spawned
  /// processes round-robin across shards like replicas.
  template <typename T, typename... Args>
  T* spawn(Args&&... args) {
    auto owned = std::make_unique<T>(&sim_, &net_, allocate_node_on(next_rr_shard_++),
                                     std::forward<Args>(args)...);
    T* raw = owned.get();
    extra_processes_.push_back(std::move(owned));
    attach_telemetry(raw);
    return raw;
  }

  /// The shared subscription controller (created on first use).
  elastic::Controller& controller();

  paxos::Coordinator* coordinator(StreamId stream);
  std::vector<paxos::Acceptor*> acceptors(StreamId stream);
  const std::vector<elastic::Replica*>& replicas() const { return replica_ptrs_; }

  /// The telemetry collector, or nullptr when telemetry is disabled.
  /// Its store() is the query surface for reports and (eventually) the
  /// elasticity controller; its slo() takes breach rules.
  registry::MonitorService* monitor_service() { return monitor_.get(); }

  /// The live topology (empty for flat clusters). Mutating it mid-run
  /// is a control-time operation, like Network::set_link; the engine's
  /// lookahead matrix follows at the next window barrier.
  sim::Topology& topology() { return options_.topology; }
  bool topology_enabled() const {
    return options_.topology.region_count() > 0;
  }

  /// Region cursor for region-affine allocation: every node created
  /// after this call is placed in `region` and pinned to that region's
  /// shard (Topology::shard_for_region). No-op for flat clusters.
  void set_build_region(sim::Topology::RegionId region) {
    build_region_ = region;
  }

  /// Crashes a stream's coordinator and promotes a standby (tests).
  NodeId allocate_node_id() { return allocate_node_on(next_rr_shard_++); }

  void run_for(Tick duration) { sim_.run_for(duration); }
  void run_until(Tick t) { sim_.run_until(t); }
  Tick now() const { return sim_.now(); }

 private:
  /// Allocates a node id pinned to `shard` (modulo the thread count).
  /// A stream's whole ring shares one shard so intra-stream traffic is
  /// never staged across the window barrier; replicas, clients and the
  /// controller round-robin. With a topology and an active build-region
  /// cursor, region affinity wins: the node is placed in the region and
  /// pinned to the region's shard. The choice affects performance only —
  /// delivery order is identical for every assignment.
  NodeId allocate_node_on(size_t shard) {
    const NodeId id = next_node_id_++;
    if (topology_enabled() && build_region_ != kNoRegion) {
      options_.topology.place(id, build_region_);
      shard = options_.topology.shard_for_region(build_region_, sim_.threads());
    }
    if (node_shard_.size() <= id) node_shard_.resize(id + 1, 0);
    node_shard_[id] = shard;
    return id;
  }

  /// Attaches (and starts) a TelemetryAgent scraping `p` into the
  /// monitor, plus a restart listener that re-arms it after a crash.
  /// No-op when telemetry is disabled.
  void attach_telemetry(sim::Process* p);

  ClusterOptions options_;
  sim::Simulation sim_;
  sim::Network net_;
  paxos::StreamDirectory directory_;
  NodeId next_node_id_ = 1;
  StreamId next_stream_id_ = 1;
  std::vector<size_t> node_shard_;
  size_t next_rr_shard_ = 0;
  static constexpr sim::Topology::RegionId kNoRegion =
      static_cast<sim::Topology::RegionId>(-1);
  sim::Topology::RegionId build_region_ = kNoRegion;

  struct StreamProcs {
    StreamId id;
    std::unique_ptr<paxos::Coordinator> coordinator;
    std::vector<std::unique_ptr<paxos::Acceptor>> acceptors;
  };
  std::vector<StreamProcs> streams_;
  std::vector<std::unique_ptr<paxos::Coordinator>> standbys_;
  std::vector<std::unique_ptr<elastic::Replica>> replicas_;
  std::vector<elastic::Replica*> replica_ptrs_;
  std::unique_ptr<elastic::Controller> controller_;
  std::vector<std::unique_ptr<sim::Process>> extra_processes_;
  std::unique_ptr<registry::MonitorService> monitor_;
  /// Declared last: agents hold raw host pointers, so they must be
  /// destroyed before any of the processes above.
  std::vector<std::unique_ptr<registry::TelemetryAgent>> agents_;
};

}  // namespace epx::harness
