#include "harness/cluster.h"

#include "util/logging.h"

namespace epx::harness {

namespace {
size_t g_default_threads = 1;
}  // namespace

size_t default_threads() { return g_default_threads; }
void set_default_threads(size_t n) { g_default_threads = n == 0 ? 1 : n; }

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)), net_(&sim_, options_.seed) {
  // Thread count must be fixed before the first process attaches (shard
  // assignment happens at attach time); the cluster builds nothing in
  // its constructor, so this is the one safe place.
  sim_.set_threads(options_.threads != 0 ? options_.threads : default_threads());
  sim_.set_shard_assignment([this](uint32_t id) {
    return id < node_shard_.size() ? node_shard_[id] : id;
  });
  net_.set_default_link(options_.link);
  if (options_.topology.region_count() > 0) {
    // options_ outlives net_ (declared first), so pointing the network
    // at the embedded topology is safe for the cluster's lifetime.
    net_.set_topology(&options_.topology);
  }
  if (options_.node_bandwidth_bps > 0.0) {
    net_.set_default_bandwidth(options_.node_bandwidth_bps);
  }
  if (options_.telemetry.enabled) {
    // Flip the master switch before any process exists so every role
    // constructor sees an active scrape set; capture annotation events
    // so the timeline can mark subscribes/splits/crashes.
    sim_.set_telemetry_enabled(true);
    sim_.trace().set_annotation_capture(true);
    monitor_ = std::make_unique<registry::MonitorService>(&sim_, &net_,
                                                          allocate_node_id(), "monitor");
    // The monitor itself is not scraped: its counters describe the
    // telemetry plane and would double every sample into more samples.
  }
}

Cluster::~Cluster() = default;

void Cluster::attach_telemetry(sim::Process* p) {
  if (!options_.telemetry.enabled || p == nullptr) return;
  registry::TelemetryAgent::Options aopts;
  aopts.interval = options_.telemetry.interval;
  aopts.collector = monitor_->id();
  auto agent = std::make_unique<registry::TelemetryAgent>(p, aopts);
  registry::TelemetryAgent* raw = agent.get();
  // Restarts re-arm the agent with a fresh window baseline (the crash
  // epoch-cancelled the pending tick). agents_ outlives no process —
  // it is declared last in the Cluster — so `raw` stays valid for the
  // host's whole life.
  p->set_restart_listener([raw] { raw->start(); });
  raw->start();
  agents_.push_back(std::move(agent));
}

StreamId Cluster::add_stream() { return add_stream_after(0); }

StreamId Cluster::add_stream_after(Tick provisioning_delay) {
  const StreamId stream = next_stream_id_++;
  StreamProcs procs;
  procs.id = stream;

  std::vector<NodeId> acceptor_ids;
  for (size_t i = 0; i < options_.acceptors_per_stream; ++i) {
    paxos::Acceptor::Config cfg;
    cfg.stream = stream;
    cfg.params = options_.params;
    cfg.storage = options_.storage;
    cfg.device = options_.storage_device;
    auto acceptor = std::make_unique<paxos::Acceptor>(
        &sim_, &net_, allocate_node_on(stream),
        "acc" + std::to_string(stream) + "." + std::to_string(i), cfg);
    acceptor_ids.push_back(acceptor->id());
    attach_telemetry(acceptor.get());
    procs.acceptors.push_back(std::move(acceptor));
  }
  // Ring wiring: coordinator -> acc0 -> acc1 -> ... (tail does not forward).
  const size_t quorum = options_.acceptors_per_stream / 2 + 1;
  for (size_t i = 0; i < procs.acceptors.size(); ++i) {
    procs.acceptors[i]->set_quorum(quorum);
    if (i + 1 < procs.acceptors.size()) {
      procs.acceptors[i]->set_ring_successor(acceptor_ids[i + 1]);
    }
  }

  paxos::Coordinator::Config ccfg;
  ccfg.stream = stream;
  ccfg.acceptors = acceptor_ids;
  ccfg.params = options_.params;
  procs.coordinator = std::make_unique<paxos::Coordinator>(
      &sim_, &net_, allocate_node_on(stream), "coord" + std::to_string(stream), ccfg);

  directory_.add(paxos::StreamInfo{stream, procs.coordinator->id(), acceptor_ids});

  paxos::Coordinator* coord = procs.coordinator.get();
  attach_telemetry(coord);
  if (provisioning_delay <= 0) {
    coord->start();
  } else {
    // Delayed start runs through the coordinator's own epoch-guarded
    // timers rather than capturing the raw pointer into a sim-level
    // event (epx-lint R5: that event would outlive a destroyed process).
    coord->start_after(provisioning_delay);
  }

  streams_.push_back(std::move(procs));
  EPX_DEBUG << "cluster: stream S" << stream << " provisioned ("
            << options_.acceptors_per_stream << " acceptors)";
  return stream;
}

paxos::Coordinator* Cluster::add_standby_coordinator(StreamId stream) {
  for (auto& s : streams_) {
    if (s.id != stream) continue;
    paxos::Coordinator::Config cfg;
    cfg.stream = stream;
    cfg.params = options_.params;
    cfg.active = false;
    for (auto& acc : s.acceptors) cfg.acceptors.push_back(acc->id());
    auto standby = std::make_unique<paxos::Coordinator>(
        &sim_, &net_, allocate_node_on(stream), "standby" + std::to_string(stream), cfg);
    standby->start();
    s.coordinator->add_standby(standby->id());
    attach_telemetry(standby.get());
    paxos::Coordinator* raw = standby.get();
    standbys_.push_back(std::move(standby));
    return raw;
  }
  return nullptr;
}

elastic::Replica* Cluster::add_replica(GroupId group, std::vector<StreamId> streams) {
  elastic::Replica::Config cfg;
  cfg.group = group;
  cfg.initial_streams = std::move(streams);
  cfg.params = options_.params;
  cfg.apply_cpu_per_cmd = options_.apply_cpu_per_cmd;
  cfg.apply_cpu_per_kib = options_.apply_cpu_per_kib;
  return add_replica(std::move(cfg));
}

elastic::Replica* Cluster::add_replica(elastic::Replica::Config config) {
  auto replica = std::make_unique<elastic::Replica>(
      &sim_, &net_, allocate_node_id(), "replica" + std::to_string(replicas_.size() + 1),
      &directory_, std::move(config));
  replica->start();
  elastic::Replica* raw = replica.get();
  attach_telemetry(raw);
  replicas_.push_back(std::move(replica));
  replica_ptrs_.push_back(raw);
  return raw;
}

elastic::Controller& Cluster::controller() {
  if (!controller_) {
    controller_ = std::make_unique<elastic::Controller>(&sim_, &net_, allocate_node_id(),
                                                        "controller", &directory_);
    attach_telemetry(controller_.get());
  }
  return *controller_;
}

paxos::Coordinator* Cluster::coordinator(StreamId stream) {
  for (auto& s : streams_) {
    if (s.id == stream) return s.coordinator.get();
  }
  return nullptr;
}

std::vector<paxos::Acceptor*> Cluster::acceptors(StreamId stream) {
  std::vector<paxos::Acceptor*> out;
  for (auto& s : streams_) {
    if (s.id == stream) {
      out.reserve(s.acceptors.size());
      for (auto& a : s.acceptors) out.push_back(a.get());
    }
  }
  return out;
}

}  // namespace epx::harness
