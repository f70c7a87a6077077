// IdWindow: the last N distinct 64-bit ids, oldest evicted first.
//
// The dedup windows of the replica (exactly-once delivery) and the
// coordinator (re-send suppression) remember one entry per recent
// command. Command ids are `node << 32 | seq` (paxos::make_command_id),
// so one client's ids arrive as dense ascending runs. The window keeps
// the ids in a FIFO ring, in insertion order, and indexes them with a
// FlatTable (util/flat_table.h) of 64-id bitmap words keyed by `id >> 6`:
// a client's 64 consecutive sequence numbers share one word, so the
// table holds about N/64 words and stays in cache. Membership is one
// probe (usually) and a bit test. Eviction clears the oldest id's bit
// and erases its word once the word is empty.
//
// Each entry also carries a caller-supplied stamp, so a caller can
// expire the oldest entries by age (the coordinator's dedup_ttl).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_table.h"

namespace epx {

class IdWindow {
 public:
  /// Holds at most `capacity` (>= 1) ids.
  explicit IdWindow(size_t capacity) : capacity_(capacity) { assert(capacity_ >= 1); }

  /// Adds `id` unless it is present; returns true if it was added. When
  /// the window is full the oldest id is evicted first. A present id
  /// keeps its place (re-inserting it does not refresh it).
  bool insert(uint64_t id, int64_t stamp = 0) {
    const uint64_t bit = uint64_t{1} << (id & 63);
    Word* w = word(id);
    if (w != nullptr && (w->bits & bit) != 0) return false;
    if (size_ == capacity_) {
      const size_t words_before = words_.size();
      pop_oldest();
      if (words_.size() != words_before) w = word(id);  // an erase shifted slots
    }
    if (w != nullptr) {
      w->bits |= bit;
    } else {
      words_.insert(Word{id >> 6, bit});
    }
    push_ring(Entry{id, stamp});
    return true;
  }

  bool contains(uint64_t id) const {
    const Word* w = words_.find(id >> 6, [](const Word&) { return true; });
    return w != nullptr && (w->bits & (uint64_t{1} << (id & 63))) != 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Oldest id and its stamp. Pre: !empty().
  uint64_t oldest() const { return ring_[head_].id; }
  int64_t oldest_stamp() const { return ring_[head_].stamp; }

  /// Evicts the oldest id. Pre: !empty().
  void pop_oldest() {
    const uint64_t id = ring_[head_].id;
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    Word* w = word(id);
    w->bits &= ~(uint64_t{1} << (id & 63));
    if (w->bits == 0) words_.erase(w);
  }

 private:
  struct Entry {
    uint64_t id;
    int64_t stamp;
  };
  /// One table slot: the ids `key << 6 | b` for every set bit b. A word
  /// with no bit set is empty.
  struct Word {
    uint64_t key = 0;
    uint64_t bits = 0;
    bool empty() const { return bits == 0; }
    uint64_t hash() const { return key; }
  };

  /// The word holding `id`'s bit, or nullptr.
  Word* word(uint64_t id) { return words_.find(id >> 6, [](const Word&) { return true; }); }

  void push_ring(Entry e) {
    if (size_ == ring_.size()) {
      // Grow the ring by doubling (re-linearised), up to the smallest
      // power of two that holds `capacity_`.
      std::vector<Entry> bigger(ring_.empty() ? 1 : ring_.size() * 2);
      for (size_t k = 0; k < size_; ++k) bigger[k] = ring_[(head_ + k) & (ring_.size() - 1)];
      ring_.swap(bigger);
      head_ = 0;
    }
    ring_[(head_ + size_) & (ring_.size() - 1)] = e;
    ++size_;
  }

  size_t capacity_;
  std::vector<Entry> ring_;  ///< power-of-two ring, oldest at head_
  size_t head_ = 0;
  size_t size_ = 0;
  FlatTable<Word> words_;  ///< the non-empty words, by key
};

}  // namespace epx
