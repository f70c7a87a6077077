// StreamQueue: the totally-ordered slot sequence of one stream, as seen
// by one replica.
//
// A stream's learner appends decided proposals; the queue tracks them as
// slot runs — one slot per command, plus run-length-encoded skip runs —
// and the absolute index of the next unconsumed slot. The deterministic
// merger consumes exactly one slot per stream per round, which makes
// delivery order a pure function of (slot index, stream id) and is what
// Elastic Paxos' merge-point alignment relies on.
//
// Entries reference the decided proposal through a shared ProposalPtr:
// buffering a proposal is a refcount bump, not a command-batch copy, and
// a command is only ever copied when the merger delivers it.
#pragma once

#include <cstdint>
#include <deque>

#include "paxos/types.h"

namespace epx::multicast {

using paxos::Command;
using paxos::Proposal;
using paxos::ProposalPtr;
using paxos::SlotIndex;
using paxos::StreamId;

class StreamQueue {
 public:
  explicit StreamQueue(StreamId id) : id_(id) {}

  StreamId id() const { return id_; }

  /// Appends a decided proposal (in instance order). Slots below the
  /// fast-forward floor are clipped; no-ops contribute nothing. The
  /// queue shares the proposal — commands are not copied.
  void push_proposal(const ProposalPtr& p);
  /// Convenience overloads for tests and synthetic feeds: freeze the
  /// proposal into shared storage, then push.
  void push_proposal(const Proposal& p) { push_proposal(paxos::make_proposal(Proposal(p))); }
  void push_proposal(Proposal&& p) { push_proposal(paxos::make_proposal(std::move(p))); }

  /// True when the slot at next_index() is buffered.
  bool has_next() const { return !entries_.empty(); }

  /// Absolute index of the next slot to consume. Valid once initialised
  /// (first proposal seen or fast_forward called).
  SlotIndex next_index() const { return next_index_; }

  bool next_is_value() const {
    return has_next() && entries_.front().next_cmd < entries_.front().end_cmd;
  }

  /// Command at the head slot; only valid if next_is_value().
  const Command& peek_value() const {
    const Entry& front = entries_.front();
    return front.prop->commands[front.next_cmd];
  }

  /// Length of the skip run at the head; 0 if the head is a value or the
  /// queue is empty. Lets mergers consume aligned idle runs in bulk.
  uint64_t head_skip_run() const {
    if (entries_.empty()) return 0;
    const Entry& front = entries_.front();
    return front.next_cmd < front.end_cmd ? 0 : front.skips;
  }

  /// Consumes exactly one slot (value or one unit of a skip run).
  void consume();

  /// Consumes `n` slots from the head skip run in one step.
  /// Pre: n <= head_skip_run().
  void consume_skips(uint64_t n);

  /// Drops every slot below `index` and moves the head there. Future
  /// proposals overlapping the floor are clipped on push. Used to
  /// discard a new stream's pre-merge-point slots (paper Fig. 2).
  void fast_forward(SlotIndex index);

  /// Number of slots currently buffered.
  uint64_t buffered_slots() const { return buffered_; }

 private:
  /// One buffered slice of a proposal: commands [next_cmd, end_cmd) of
  /// `prop`, followed by `skips` skip slots. A pure skip run has
  /// next_cmd == end_cmd and absorbs adjacent runs by growing `skips`.
  struct Entry {
    ProposalPtr prop;       // shared with the learner/acceptor; may be null for pure skips
    uint32_t next_cmd = 0;  // first unconsumed command index
    uint32_t end_cmd = 0;   // one past the last buffered command index
    uint64_t skips = 0;     // skip slots after the commands
  };

  StreamId id_;
  std::deque<Entry> entries_;
  SlotIndex next_index_ = 0;
  bool initialized_ = false;
  uint64_t buffered_ = 0;
};

}  // namespace epx::multicast
