#include "harness/kv_cluster.h"

#include <cassert>

#include "util/logging.h"

namespace epx::harness {

using kv::KvReplica;
using kv::PartitionEntry;

KvCluster::KvCluster(ClusterOptions options) : cluster_(std::move(options)) {
  registry_ = cluster_.spawn<registry::RegistryServer>("registry");
}

KvCluster::Partition* KvCluster::find_partition(uint32_t id) {
  for (auto& p : partitions_) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

uint32_t KvCluster::add_partition(size_t replica_count) {
  const paxos::StreamId stream = cluster_.add_stream();
  const uint32_t partition_id = next_partition_id_++;
  const paxos::GroupId group = next_group_id_++;

  Partition partition;
  partition.id = partition_id;
  partition.stream = stream;
  partition.group = group;

  for (size_t i = 0; i < replica_count; ++i) {
    elastic::Replica::Config base;
    base.group = group;
    base.initial_streams = {stream};
    base.params = cluster_.options().params;
    base.apply_cpu_per_cmd = cluster_.options().apply_cpu_per_cmd;
    base.apply_cpu_per_kib = cluster_.options().apply_cpu_per_kib;
    KvReplica::KvConfig kvcfg;
    kvcfg.partition_id = partition_id;
    auto* replica = cluster_.spawn<KvReplica>(
        "kv" + std::to_string(partition_id) + "." + std::to_string(i + 1),
        &cluster_.directory(), base, kvcfg);
    replica->start();
    partition.members.push_back(replica);
    replicas_.push_back(replica);
  }
  partitions_.push_back(partition);

  // Re-balance the hash space evenly across current partitions (only
  // used at bootstrap, before any traffic).
  std::vector<PartitionEntry> entries;
  const uint64_t span = ~0ULL / partitions_.size();
  for (size_t i = 0; i < partitions_.size(); ++i) {
    PartitionEntry e;
    e.partition_id = partitions_[i].id;
    e.stream = partitions_[i].stream;
    e.hash_lo = i * span + (i == 0 ? 0 : 1);
    e.hash_hi = (i + 1 == partitions_.size()) ? ~0ULL : (i + 1) * span;
    entries.push_back(e);
  }
  map_ = kv::PartitionMap(std::move(entries));
  for (size_t i = 0; i < partitions_.size(); ++i) {
    const auto& e = map_.entries()[i];
    for (auto* r : partitions_[i].members) {
      r->set_ownership(e.partition_id, e.hash_lo, e.hash_hi);
    }
  }
  return partition_id;
}

void KvCluster::add_global_stream() {
  assert(global_stream_ == paxos::kInvalidStream);
  global_stream_ = cluster_.add_stream();
  // Bootstrap-time subscription: recreate each replica's subscriptions
  // is not possible post-start, so the global stream must be added via
  // the dynamic protocol: subscribe every group through its own stream.
  for (const auto& p : partitions_) {
    cluster_.controller().subscribe(p.group, global_stream_, p.stream);
  }
}

void KvCluster::publish() {
  registry_->put(kv::kPartitionMapKey, map_.serialize());
  if (global_stream_ != paxos::kInvalidStream) {
    registry_->put(kv::kGlobalStreamKey, std::to_string(global_stream_));
  }
}

void KvCluster::wire_peers() {
  std::vector<kv::PeerReplica> all;
  for (const auto& p : partitions_) {
    for (auto* r : p.members) all.push_back({r->id(), p.id});
  }
  for (auto* r : replicas_) {
    std::vector<kv::PeerReplica> peers;
    for (const auto& peer : all) {
      if (peer.node != r->id()) peers.push_back(peer);
    }
    r->set_peers(std::move(peers));
  }
}

kv::KvClient* KvCluster::add_client(kv::KvClient::Config config) {
  config.registry = registry_->id();
  auto* client = cluster_.spawn<kv::KvClient>(
      "kvclient" + std::to_string(cluster_.now() / kSecond), &cluster_.directory(),
      std::move(config));
  return client;
}

std::vector<KvReplica*> KvCluster::replicas_of(uint32_t partition_id) const {
  for (const auto& p : partitions_) {
    if (p.id == partition_id) return p.members;
  }
  return {};
}

paxos::StreamId KvCluster::stream_of(uint32_t partition_id) const {
  for (const auto& p : partitions_) {
    if (p.id == partition_id) return p.stream;
  }
  return paxos::kInvalidStream;
}

paxos::StreamId KvCluster::begin_split(uint32_t partition_id, KvReplica* mover,
                                       bool with_prepare) {
  Partition* partition = find_partition(partition_id);
  assert(partition != nullptr);
  pending_split_stream_ = cluster_.add_stream();
  pending_split_group_ = next_group_id_++;
  // The mover re-labels itself into the new group, then subscribes to
  // the new partition's stream via the old one (paper §V-A).
  mover->set_group(pending_split_group_);
  if (with_prepare) {
    cluster_.controller().prepare(pending_split_group_, pending_split_stream_,
                                  partition->stream);
  }
  cluster_.controller().subscribe(pending_split_group_, pending_split_stream_,
                                  partition->stream);
  return pending_split_stream_;
}

uint32_t KvCluster::complete_split(uint32_t partition_id, KvReplica* mover) {
  Partition* old_partition = find_partition(partition_id);
  assert(old_partition != nullptr && pending_split_stream_ != paxos::kInvalidStream);

  const uint32_t new_id = map_.split(partition_id, pending_split_stream_);
  const PartitionEntry* old_entry = nullptr;
  const PartitionEntry* new_entry = nullptr;
  for (const auto& e : map_.entries()) {
    if (e.partition_id == partition_id) old_entry = &e;
    if (e.partition_id == new_id) new_entry = &e;
  }
  assert(old_entry != nullptr && new_entry != nullptr);

  // Move the replica into the new partition's bookkeeping.
  auto& members = old_partition->members;
  members.erase(std::find(members.begin(), members.end(), mover));
  Partition fresh;
  fresh.id = new_id;
  fresh.stream = pending_split_stream_;
  fresh.group = pending_split_group_;
  fresh.members = {mover};
  const paxos::StreamId old_stream = old_partition->stream;
  partitions_.push_back(fresh);

  // Ownership flips, clients learn the new map, the mover leaves the old
  // stream.
  for (auto* r : replicas_of(partition_id)) {
    r->set_ownership(partition_id, old_entry->hash_lo, old_entry->hash_hi);
  }
  mover->set_ownership(new_id, new_entry->hash_lo, new_entry->hash_hi);
  publish();
  cluster_.controller().unsubscribe(pending_split_group_, old_stream,
                                    pending_split_stream_);

  pending_split_stream_ = paxos::kInvalidStream;
  pending_split_group_ = paxos::kInvalidGroup;
  return new_id;
}

void KvCluster::begin_merge(uint32_t into, uint32_t from) {
  Partition* into_p = find_partition(into);
  Partition* from_p = find_partition(from);
  assert(into_p != nullptr && from_p != nullptr);
  const kv::PartitionEntry* into_e = nullptr;
  const kv::PartitionEntry* from_e = nullptr;
  for (const auto& e : map_.entries()) {
    if (e.partition_id == into) into_e = &e;
    if (e.partition_id == from) from_e = &e;
  }
  assert(into_e != nullptr && from_e != nullptr);
  const uint64_t lo = std::min(into_e->hash_lo, from_e->hash_lo);
  const uint64_t hi = std::max(into_e->hash_hi, from_e->hash_hi);
  for (auto* r : into_p->members) r->set_ownership(into, lo, hi);
  cluster_.controller().prepare(into_p->group, from_p->stream, into_p->stream);
  cluster_.controller().subscribe(into_p->group, from_p->stream, into_p->stream);
}

void KvCluster::flip_merge(uint32_t into, uint32_t from) {
  const bool merged = map_.merge(into, from);
  assert(merged);
  (void)merged;
  publish();
}

void KvCluster::finish_merge(uint32_t into, uint32_t from) {
  Partition* into_p = find_partition(into);
  Partition* from_p = find_partition(from);
  assert(into_p != nullptr && from_p != nullptr);
  // Hand the old shard's data over: local (newer) values win.
  if (!from_p->members.empty()) {
    const std::string blob = from_p->members.front()->store().range({}, std::nullopt).str();
    for (auto* r : into_p->members) r->absorb_store(blob, /*overwrite=*/false);
  }
  cluster_.controller().unsubscribe(into_p->group, from_p->stream, into_p->stream);
  for (auto* r : from_p->members) {
    r->crash();  // retired
    replicas_.erase(std::find(replicas_.begin(), replicas_.end(), r));
  }
  partitions_.erase(std::find_if(partitions_.begin(), partitions_.end(),
                                 [&](const Partition& p) { return p.id == from; }));
}

}  // namespace epx::harness
