// Directory of live streams: who coordinates and who accepts.
//
// In the paper this information lives in ZooKeeper; within a simulated
// cluster the directory is a plain shared object maintained by the
// harness (new streams appear when the ClusterManager provisions them).
// The replicated registry service (src/registry) is used for the
// application-level configuration the paper keeps in ZooKeeper, e.g.
// partition maps.
#pragma once

#include <unordered_map>
#include <vector>

#include "paxos/types.h"

namespace epx::paxos {

struct StreamInfo {
  StreamId id = kInvalidStream;
  NodeId coordinator = net::kInvalidNode;
  std::vector<NodeId> acceptors;  ///< ring order
  size_t quorum() const { return acceptors.size() / 2 + 1; }
};

class StreamDirectory {
 public:
  void add(StreamInfo info) { streams_[info.id] = std::move(info); }
  void remove(StreamId id) { streams_.erase(id); }

  bool has(StreamId id) const { return streams_.count(id) > 0; }

  /// The stream's entry, or nullptr when it is not in the directory.
  const StreamInfo* find(StreamId id) const {
    const auto it = streams_.find(id);
    return it == streams_.end() ? nullptr : &it->second;
  }

  const StreamInfo& get(StreamId id) const { return streams_.at(id); }

  /// Updates the coordinator after a failover.
  void set_coordinator(StreamId id, NodeId coordinator) {
    streams_.at(id).coordinator = coordinator;
  }

 private:
  std::unordered_map<StreamId, StreamInfo> streams_;
};

}  // namespace epx::paxos
