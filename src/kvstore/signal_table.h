// SignalTable: getrange signals that wait for their getrange.
//
// A replica executes a multi-partition getrange once every other
// partition has signalled that it delivered it (paper §VI). A signal that
// arrives first waits here as one (command id, partition) record, in a
// flat open-addressing table keyed by the command id alone: the records
// of one getrange share one probe run, so a lookup scans that run and
// erase(id) clears it. Deletion shifts later members of the run back, so
// there are no tombstones, and nothing is allocated per record.
//
// Memory is bounded. Each record carries an arrival stamp, and when the
// table holds `capacity` records, one sweep evicts all but the newest
// capacity / 2: oldest first, amortised O(1) per insert.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace epx::kv {

class SignalTable {
 public:
  /// Holds at most `capacity` (>= 2) records.
  explicit SignalTable(size_t capacity) : capacity_(capacity), slots_(kMinSlots) {
    assert(capacity_ >= 2);
  }

  /// Records that `partition` signalled `id`; a repeat is a no-op.
  void insert(uint64_t id, uint32_t partition) {
    if (contains(id, partition)) return;
    if (size_ == capacity_) rebuild(slots_.size(), stamp_ - capacity_ / 2);
    if ((size_ + 1) * 2 > slots_.size()) rebuild(slots_.size() * 2, 0);
    place(Slot{id, partition, ++stamp_});
    ++size_;
  }

  bool contains(uint64_t id, uint32_t partition) const {
    for (size_t i = home(id); slots_[i].stamp != 0; i = next(i)) {
      if (slots_[i].id == id && slots_[i].partition == partition) return true;
    }
    return false;
  }

  /// Erases every record of `id`.
  void erase(uint64_t id) {
    for (size_t i = home(id); slots_[i].stamp != 0;) {
      if (slots_[i].id == id) {
        erase_at(i);  // a later member of the run may move into slot i
      } else {
        i = next(i);
      }
    }
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t id = 0;
    uint32_t partition = 0;
    uint64_t stamp = 0;  ///< arrival order, from 1; 0 marks an empty slot
  };

  static constexpr size_t kMinSlots = 16;

  /// Fibonacci hashing: command ids are `node << 32 | seq`, and the high
  /// product bits mix both halves.
  size_t home(uint64_t id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  size_t next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// Puts `s` in the empty slot that ends its id's probe run.
  void place(const Slot& s) {
    size_t i = home(s.id);
    while (slots_[i].stamp != 0) i = next(i);
    slots_[i] = s;
  }

  /// Frees slot `i` and shifts later members of its run back, so every
  /// record stays reachable from its home slot.
  void erase_at(size_t i) {
    const size_t mask = slots_.size() - 1;
    for (size_t j = next(i); slots_[j].stamp != 0; j = next(j)) {
      // Slot j may fill the hole at i if i lies on its probe path.
      if (((j - home(slots_[j].id)) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }

  /// Re-places, in `slot_count` slots, the records stamped after
  /// `evict_through`.
  void rebuild(size_t slot_count, uint64_t evict_through) {
    std::vector<Slot> old(slot_count);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slot_count);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.stamp > evict_through) {
        place(s);
        ++size_;
      }
    }
  }

  size_t capacity_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  int shift_ = 64 - std::countr_zero(kMinSlots);
  size_t size_ = 0;
  uint64_t stamp_ = 0;  ///< the last stamp handed out
};

}  // namespace epx::kv
