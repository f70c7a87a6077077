// FlatTable: the one open-addressing hash table of the hot paths.
//
// A power-of-two array of small value-type slots, linear probing, at
// most half full (it doubles first), and backward-shift deletion, so it
// needs no tombstones. The home slot of hash h is the top bits of
// h * 2^64/phi (Fibonacci hashing): those bits depend on every bit of h,
// so hashes that differ only in their low bits (one client's command
// ids) or only in their high ones (the keys of one partition's hash
// range) still spread over the table.
//
// The table knows nothing of keys. A Slot is a value type whose default
// value is empty and which provides `bool empty() const` and
// `uint64_t hash() const`; lookups take a hash plus a match predicate,
// so several entries may share one hash (the records of one getrange,
// keys whose 64-bit hashes collide). No caller sees the slot order:
// there is no iterator, and retain() only re-places what it keeps.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace epx {

/// 2^64 / phi, rounded to odd: the home slot of hash h in a table of 2^k
/// slots is the top k bits of h * kFibonacciMultiplier.
inline constexpr uint64_t kFibonacciMultiplier = 0x9E3779B97F4A7C15ULL;

template <typename Slot>
class FlatTable {
 public:
  FlatTable() : slots_(kMinSlots) {}

  size_t size() const { return size_; }

  /// The slot holding an entry with `hash` that `match` accepts, or
  /// nullptr. The pointer stays valid until the next insert or erase.
  template <typename Match>
  const Slot* find(uint64_t hash, Match match) const {
    for (size_t i = home(hash); !slots_[i].empty(); i = next(i)) {
      if (slots_[i].hash() == hash && match(slots_[i])) return &slots_[i];
    }
    return nullptr;
  }
  template <typename Match>
  Slot* find(uint64_t hash, Match match) {
    return const_cast<Slot*>(std::as_const(*this).find(hash, match));
  }

  /// Adds `s`, which must not be empty; the caller has checked that it
  /// is not present.
  void insert(const Slot& s) {
    if ((size_ + 1) * 2 > slots_.size()) {
      rebuild(slots_.size() * 2, [](const Slot&) { return true; });
    }
    place(s);
    ++size_;
  }

  /// Erases the entry in `slot` (from find). Later members of its probe
  /// run shift back, so every entry stays reachable from its home slot.
  /// The entry itself may already read as empty.
  void erase(Slot* slot) {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(slot - slots_.data());
    for (size_t j = next(i); !slots_[j].empty(); j = next(j)) {
      // Slot j may fill the hole at i if i lies on its probe path.
      if (((j - home(slots_[j].hash())) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }

  /// Erases every entry that `keep` rejects.
  template <typename Keep>
  void retain(Keep keep) { rebuild(slots_.size(), keep); }

 private:
  static constexpr size_t kMinSlots = 16;

  size_t home(uint64_t hash) const {
    return static_cast<size_t>((hash * kFibonacciMultiplier) >> shift_);
  }
  size_t next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// Puts `s` in the empty slot that ends its hash's probe run.
  void place(const Slot& s) {
    size_t i = home(s.hash());
    while (!slots_[i].empty()) i = next(i);
    slots_[i] = s;
  }

  /// Re-places, in `slot_count` slots, the entries `keep` accepts.
  template <typename Keep>
  void rebuild(size_t slot_count, Keep keep) {
    std::vector<Slot> old(slot_count);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slot_count);
    size_ = 0;
    for (const Slot& s : old) {
      if (!s.empty() && keep(s)) {
        place(s);
        ++size_;
      }
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  int shift_ = 64 - std::countr_zero(kMinSlots);
  size_t size_ = 0;
};

}  // namespace epx
