// StaticMerger: the deterministic merge of classic (non-elastic)
// Multi-Ring Paxos — subscriptions are fixed at construction.
//
// It is the reference implementation of lock-step round-robin delivery,
// property-tested on its own before the elastic machinery is added.
// Changing its subscriptions requires stopping the system, exactly the
// limitation the paper removes. bench/ablation_static_vs_elastic does not
// run this class: it models the static baseline as a crash of every
// replica plus fresh replicas on the new subscription set.
//
// Delivery order is lexicographic in (slot index, stream id): one slot
// is consumed from every stream per round, streams visited in ascending
// id order.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "multicast/stream_queue.h"

namespace epx::multicast {

class StaticMerger {
 public:
  /// Called for every application command, in merged delivery order.
  using DeliverFn = std::function<void(const Command&, StreamId)>;

  StaticMerger(std::vector<StreamId> streams, DeliverFn deliver);

  /// Queue a learner should feed. Valid for the lifetime of the merger.
  StreamQueue& queue(StreamId stream);

  /// Consumes every deliverable slot; call whenever a queue grows.
  void pump();

  const std::vector<StreamId>& subscriptions() const { return streams_; }
  uint64_t delivered() const { return delivered_; }

 private:
  std::vector<StreamId> streams_;  // ascending id order
  std::map<StreamId, std::unique_ptr<StreamQueue>> queues_;
  std::vector<StreamQueue*> qs_;  // parallel to streams_, pump's hot view
  size_t rr_ = 0;
  DeliverFn deliver_;
  uint64_t delivered_ = 0;
};

}  // namespace epx::multicast
