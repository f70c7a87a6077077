// RetryQueue: the re-send schedule of a closed-loop multicast client.
//
// A client re-sends a command whose reply is late (paper §VII-D: the
// ~1 s re-partitioning gap of Fig. 4), but almost every command is
// answered long before its retry is due. So instead of one timer per
// command, the queue keeps a FIFO of (deadline, thread, command id) in
// issue order and arms one Process::after timer at the oldest live
// deadline. Every deadline is a send time plus one fixed timeout, so the
// FIFO is sorted by deadline. When the timer fires, the queue re-sends
// the live entries that are due, in issue order, drops the answered
// ones, and re-arms at the next live deadline. A retry still fires at
// exactly sent_at + timeout (and again every timeout while unanswered);
// an answered command costs one FIFO push and pop, and no timer event.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/process.h"

namespace epx::multicast {

class RetryQueue {
 public:
  /// Is `id` still `thread`'s unanswered command?
  using LiveFn = std::function<bool(size_t thread, uint64_t id)>;
  /// Re-sends `thread`'s outstanding command.
  using ResendFn = std::function<void(size_t thread)>;

  RetryQueue(sim::Process* host, Tick timeout, LiveFn live, ResendFn resend)
      : host_(host), timeout_(timeout), live_(std::move(live)), resend_(std::move(resend)) {}

  /// Schedules the retry of `thread`'s command `id`, sent just now.
  void track(size_t thread, uint64_t id);

  /// Forgets every entry (the client stopped); an armed timer fires as a
  /// no-op.
  void clear();

 private:
  struct Entry {
    Tick deadline;
    size_t thread;
    uint64_t id;
  };

  void arm(Tick deadline);
  void fire();

  sim::Process* host_;
  Tick timeout_;
  LiveFn live_;
  ResendFn resend_;
  std::deque<Entry> fifo_;  ///< issue order == deadline order
  bool armed_ = false;      ///< a timer is pending for fifo_.front()
  uint64_t gen_ = 0;        ///< bumped by clear(); stale timers compare unequal
};

}  // namespace epx::multicast
