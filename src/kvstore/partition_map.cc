#include "kvstore/partition_map.h"

#include <algorithm>

#include "net/buffer.h"

namespace epx::kv {

const PartitionEntry* PartitionMap::lookup(std::string_view key) const {
  return lookup_hash(key_hash(key));
}

const PartitionEntry* PartitionMap::lookup_hash(uint64_t hash) const {
  for (const auto& e : entries_) {
    if (e.owns_hash(hash)) return &e;
  }
  return nullptr;
}

uint32_t PartitionMap::split(uint32_t partition_id, StreamId new_stream) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const PartitionEntry& e) { return e.partition_id == partition_id; });
  if (it == entries_.end()) return 0;
  uint32_t next_id = 0;
  for (const auto& e : entries_) next_id = std::max(next_id, e.partition_id);
  ++next_id;

  const uint64_t mid = it->hash_lo + (it->hash_hi - it->hash_lo) / 2;
  PartitionEntry upper;
  upper.partition_id = next_id;
  upper.hash_lo = mid + 1;
  upper.hash_hi = it->hash_hi;
  upper.stream = new_stream;
  it->hash_hi = mid;
  entries_.push_back(upper);
  return next_id;
}

bool PartitionMap::merge(uint32_t into, uint32_t from) {
  auto find = [&](uint32_t id) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const PartitionEntry& e) { return e.partition_id == id; });
  };
  auto into_it = find(into);
  auto from_it = find(from);
  if (into_it == entries_.end() || from_it == entries_.end()) return false;
  // Ranges must be adjacent.
  if (into_it->hash_hi + 1 == from_it->hash_lo) {
    into_it->hash_hi = from_it->hash_hi;
  } else if (from_it->hash_hi + 1 == into_it->hash_lo) {
    into_it->hash_lo = from_it->hash_lo;
  } else {
    return false;
  }
  entries_.erase(from_it);
  return true;
}

std::string PartitionMap::serialize() const {
  net::Writer w;
  w.varint(entries_.size());
  for (const auto& e : entries_) {
    w.varint(e.partition_id);
    w.u64(e.hash_lo);
    w.u64(e.hash_hi);
    w.varint(e.stream);
  }
  return std::string(reinterpret_cast<const char*>(w.data().data()), w.size());
}

PartitionMap PartitionMap::deserialize(std::string_view data) {
  net::Reader r(data);
  std::vector<PartitionEntry> entries;
  const uint64_t n = r.varint();
  entries.reserve(std::min<uint64_t>(n, r.remaining()));  // an entry takes >= 18 bytes
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    PartitionEntry e;
    e.partition_id = static_cast<uint32_t>(r.varint());
    e.hash_lo = r.u64();
    e.hash_hi = r.u64();
    e.stream = static_cast<StreamId>(r.varint());
    entries.push_back(e);
  }
  return PartitionMap(std::move(entries));
}

}  // namespace epx::kv
