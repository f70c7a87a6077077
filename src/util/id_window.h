// IdWindow: the last N distinct 64-bit ids, oldest evicted first.
//
// The dedup windows of the replica (exactly-once delivery) and the
// coordinator (re-send suppression) remember one entry per recent
// command. Command ids are `node << 32 | seq` (paxos::make_command_id),
// so one client's ids arrive as dense ascending runs. The window keeps
// the ids in a FIFO ring, in insertion order, and indexes them with a
// small open-addressing table of 64-id bitmap words keyed by `id >> 6`:
// a client's 64 consecutive sequence numbers share one word, so the
// table holds about N/64 words and stays in cache. Membership is one
// probe (usually) and a bit test. Eviction clears the oldest id's bit
// and frees its word once the word is empty; backward-shift deletion
// keeps probe chains short without tombstones.
//
// Each entry also carries a caller-supplied stamp, so a caller can
// expire the oldest entries by age (the coordinator's dedup_ttl).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace epx {

class IdWindow {
 public:
  /// Holds at most `capacity` (>= 1) ids.
  explicit IdWindow(size_t capacity) : capacity_(capacity), table_(kMinWords) {
    assert(capacity_ >= 1);
  }

  /// Adds `id` unless it is present; returns true if it was added. When
  /// the window is full the oldest id is evicted first. A present id
  /// keeps its place (re-inserting it does not refresh it).
  bool insert(uint64_t id, int64_t stamp = 0) {
    const uint64_t key = id >> 6;
    const uint64_t bit = uint64_t{1} << (id & 63);
    size_t i = find(key);
    if ((table_[i].bits & bit) != 0) return false;
    if (size_ == capacity_) {
      const size_t words_before = words_;
      pop_oldest();
      if (words_ != words_before) i = find(key);  // a deletion shifted slots
    }
    if (table_[i].bits == 0) {
      if ((words_ + 1) * 2 > table_.size()) {
        grow_table();
        i = find(key);
      }
      table_[i].key = key;
      ++words_;
    }
    table_[i].bits |= bit;
    push_ring(Entry{id, stamp});
    return true;
  }

  bool contains(uint64_t id) const {
    return (table_[find(id >> 6)].bits & (uint64_t{1} << (id & 63))) != 0;
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
    const size_t i = find(id >> 6);
    table_[i].bits &= ~(uint64_t{1} << (id & 63));
    if (table_[i].bits == 0) erase_word(i);
  }

 private:
  struct Entry {
    uint64_t id;
    int64_t stamp;
  };
  /// One table slot: the ids `key << 6 | b` for every set bit b. A slot
  /// with no bits set is empty.
  struct Word {
    uint64_t key = 0;
    uint64_t bits = 0;
  };

  static constexpr size_t kMinWords = 16;

  /// Home slot: Fibonacci hashing spreads a client's adjacent keys over
  /// the table (the high product bits mix every key bit).
  size_t home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Slot holding `key`, or the empty slot that ends its probe chain.
  size_t find(uint64_t key) const {
    const size_t mask = table_.size() - 1;
    size_t i = home(key);
    while (table_[i].bits != 0 && table_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  /// Frees slot `i` and shifts later members of its probe chain back, so
  /// every live key stays reachable from its home slot.
  void erase_word(size_t i) {
    const size_t mask = table_.size() - 1;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (table_[j].bits == 0) break;
      // Slot j may fill the hole at i if i lies on its probe path.
      if (((j - home(table_[j].key)) & mask) >= ((j - i) & mask)) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i] = Word{};
    --words_;
  }

  void grow_table() {
    std::vector<Word> old(table_.size() * 2);
    old.swap(table_);
    --shift_;
    for (const Word& w : old) {
      if (w.bits != 0) table_[find(w.key)] = w;
    }
  }

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
  std::vector<Word> table_;  ///< power-of-two open-addressing table
  int shift_ = 64 - std::countr_zero(kMinWords);
  size_t words_ = 0;  ///< non-empty table slots
};

}  // namespace epx
