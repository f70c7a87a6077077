// Windowed metric collection for experiment reports.
//
// WindowRing is the one per-window store behind every instrument: a
// bounded ring of fixed-width virtual-time windows. WindowedCounter
// (uint64_t slots) turns discrete events (delivered commands, bytes) into
// a per-window rate series — exactly what the paper's throughput-over-time
// panels plot — and obs::Timer (Histogram slots) keeps the per-window
// latency distributions. phase_averages() computes per-phase averages,
// matching Fig. 3's "Interval avg" line.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace epx {

/// Fixed-width windows of virtual time held in a bounded ring. Window i
/// covers [i * kWidth, (i + 1) * kWidth); the ring keeps the newest
/// kCapacity windows (~17 virtual minutes), so an instrument's footprint
/// is bounded no matter how long the run.
///
///   * Growth is linear (one slot per window) until kCapacity; only a full
///     ring rotates, evicting the oldest window and reusing its slot.
///   * Retention starts at window 0, so early quiet windows read as
///     zero-filled, unless the first touch is already past the ring's
///     reach.
///   * A jump wider than the ring ages every retained window out at once;
///     the slots are reset in place and the gap is never allocated.
///   * Windows that aged out read as absent (find() == nullptr). Sums
///     treat them as empty; reports ask first_retained() so they can
///     print an aged-out window as missing instead of as zero.
template <typename Slot>
class WindowRing {
 public:
  static constexpr Tick kWidth = kSecond;
  static constexpr size_t kCapacity = 1024;

  /// Slot of the window containing `now` (negative times clamp to window
  /// 0). Hot path: `now` lands in the same window as the previous call —
  /// the cached [cur_start_, cur_end_) range — which costs two compares
  /// and no division. Any other window takes the slow path.
  Slot& at(Tick now) {
    if (now >= cur_start_ && now < cur_end_) return ring_[cur_pos_];
    return at_slow(now);
  }

  /// One past the newest window index started so far (0 before the
  /// first touch).
  size_t size() const { return ring_.empty() ? 0 : last_ + 1; }

  /// Oldest window index the ring still holds (0 before the first
  /// touch); windows below it aged out.
  size_t first_retained() const { return ring_.empty() ? 0 : first_; }

  /// Slot of window `idx`, or nullptr when it aged out of the ring or
  /// lies beyond the newest window.
  const Slot* find(size_t idx) const {
    if (ring_.empty() || idx < first_ || idx > last_) return nullptr;
    return &ring_[pos(idx)];
  }

 private:
  size_t pos(size_t idx) const { return (head_ + (idx - first_)) % ring_.size(); }
  Slot& at_slow(Tick now);

  /// Slots for windows [first_, last_]; ring_[head_] holds first_'s slot.
  /// head_ stays 0 while the ring grows (slots are linear, no wraparound).
  std::vector<Slot> ring_;
  size_t first_ = 0;
  size_t last_ = 0;
  size_t head_ = 0;
  // Cached bounds and slot of the most recently hit window (empty at
  // start, so the first touch always takes the slow path).
  Tick cur_start_ = 0;
  Tick cur_end_ = 0;
  size_t cur_pos_ = 0;
};

template <typename Slot>
Slot& WindowRing<Slot>::at_slow(Tick now) {
  if (now < 0) now = 0;
  const auto idx = static_cast<size_t>(now / kWidth);
  if (ring_.empty()) {
    first_ = last_ = idx >= kCapacity ? idx : 0;
    ring_.emplace_back();
  }
  if (idx < first_) {
    // Older than retention. Simulated time is monotone per owning shard,
    // so this is a theoretical path; fold into the oldest retained window
    // rather than losing the sample.
    return ring_[head_];
  }
  if (idx > last_ && idx - last_ > kCapacity) {
    // Jumped farther than the ring spans: every retained window ages out
    // at once. The zeroed slots are reused as the span regrows.
    for (Slot& s : ring_) s = Slot();
    first_ = last_ = idx;
    head_ = 0;
  }
  while (last_ < idx) {
    const size_t span = last_ - first_ + 1;
    if (span == kCapacity) {
      ring_[head_] = Slot();  // full: evict the oldest, reuse its slot
      head_ = (head_ + 1) % kCapacity;
      ++first_;
    } else if (span == ring_.size()) {
      ring_.emplace_back();  // head_ == 0 while growing
    }
    ++last_;
  }
  cur_pos_ = pos(idx);
  cur_start_ = static_cast<Tick>(idx) * kWidth;
  cur_end_ = cur_start_ + kWidth;
  return ring_[cur_pos_];
}

/// Accumulates event counts into the ring's one-second windows.
class WindowedCounter {
 public:
  void add(Tick now, uint64_t count = 1) {
    windows_.at(now) += count;
    total_ += count;
  }

  Tick window() const { return WindowRing<uint64_t>::kWidth; }

  /// Number of complete-or-started windows so far.
  size_t size() const { return windows_.size(); }
  /// Oldest window still held; count_at() reads 0 below it.
  size_t first_retained() const { return windows_.first_retained(); }

  /// Raw count in window i (0 once the window aged out of the ring).
  uint64_t count_at(size_t i) const {
    const uint64_t* c = windows_.find(i);
    return c == nullptr ? 0 : *c;
  }

  /// Event rate (events per second) in window i.
  double rate_at(size_t i) const;

  /// Sum of events in windows whose start lies in [from, to).
  uint64_t total_in(Tick from, Tick to) const;

  /// Average rate (events/sec) over virtual interval [from, to).
  double average_rate(Tick from, Tick to) const;

  uint64_t total() const { return total_; }

 private:
  WindowRing<uint64_t> windows_;
  uint64_t total_ = 0;
};

/// Computes phase averages: given phase boundary times, reports the
/// average rate of a WindowedCounter within each phase.
struct PhaseAverage {
  Tick from = 0;
  Tick to = 0;
  double rate = 0.0;
};

std::vector<PhaseAverage> phase_averages(const WindowedCounter& counter,
                                         const std::vector<Tick>& boundaries, Tick end);

}  // namespace epx
