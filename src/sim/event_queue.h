// Slab-allocated discrete-event queue ordered by (time, insertion seq).
//
// The engine behind Simulation. Three design decisions buy the hot-path
// throughput the benches need:
//
//   * Event records live in a chunked slab with a free list; the callback
//     is stored inline in the record (small-buffer optimisation, 80 bytes)
//     so scheduling the common lambdas — message delivery, CPU dispatch,
//     timers — performs no heap allocation. Oversized captures fall back
//     to one boxed allocation.
//
//   * Near-future events (the overwhelming majority: link latencies and
//     CPU costs are microseconds-to-milliseconds) go into a timing wheel:
//     a flat calendar of 8192 slots, 4.096 us of virtual time each
//     (~33.5 ms window), with an occupancy bitmap so advancing skips
//     empty slots in O(1). Schedule and pop are O(1) inside the window.
//
//   * Far-future events (heartbeats, provisioning delays) overflow into a
//     binary heap. When the wheel window is exhausted the queue rebases
//     the window at the heap's minimum and pulls every event inside the
//     new window back into the wheel, so the heap stays small and cold.
//
// Ordering contract: events are popped in strictly increasing
// (time, seq) order — identical to the previous std::function /
// std::priority_queue implementation, so seeded runs keep bit-identical
// delivery order. Within a wheel slot (which spans 4096 ticks) events
// are re-ordered exactly by (time, seq) through a small "near" heap that
// holds the slot currently being drained.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.h"

namespace epx::sim {

/// Ordering lane of an event within one tick. Same-tick events pop in
/// class order (deliveries, then timers, then dispatches, then control),
/// FIFO within a class. The lane makes same-tick ordering a property of
/// the event's *kind* instead of global insertion order — the invariant
/// the parallel engine needs so that per-shard queues reproduce exactly
/// the serial pop order (see DESIGN.md §13): all of a tick's message
/// arrivals land in a process's inbox before any dispatch at that tick
/// runs, in both execution modes.
enum class EventClass : uint8_t {
  kDelivery = 0,  ///< network arrival pumps (canonical channel drains)
  kTimer = 1,     ///< Process::after timer fires
  kDispatch = 2,  ///< Process inbox dispatch (handler execution)
  kControl = 3,   ///< everything scheduled from outside process context
};

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `fn` to run at absolute time `time`. Callbacks scheduled
  /// for the same time and class run in schedule order (FIFO).
  ///
  /// The class rides in the top bits of the 64-bit ordering seq, so the
  /// node layout, the comparator and the (time, seq) pop contract are
  /// unchanged — "seq" simply became "class ## insertion counter".
  template <typename F>
  void schedule(Tick time, EventClass cls, F&& fn) {
    using Fn = std::decay_t<F>;
    Node* n = alloc_node();
    n->time = time;
    n->seq = (static_cast<uint64_t>(cls) << kClassShift) | next_seq_++;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
      n->run_and_destroy = &run_inline<Fn>;
      n->destroy = &destroy_inline<Fn>;
    } else {
      Fn* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(n->storage, &boxed, sizeof(boxed));
      n->run_and_destroy = &run_boxed<Fn>;
      n->destroy = &destroy_boxed<Fn>;
    }
    insert(n);
  }

  /// Back-compat entry point for callers without a natural lane (tests,
  /// micro benches driving the queue directly): the control lane.
  template <typename F>
  void schedule(Tick time, F&& fn) {
    schedule(time, EventClass::kControl, std::forward<F>(fn));
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Time of the earliest pending event. Pre: !empty().
  Tick next_time() {
    advance();
    return near_.front().time;
  }

  /// Pops the earliest event and runs its callback. Pre: !empty().
  void pop_and_run() {
    advance();
    if (near_.size() > 1) std::pop_heap(near_.begin(), near_.end(), After{});
    Node* n = near_.back().node;
    near_.pop_back();
    --size_;
    n->run_and_destroy(n);
    free_node(n);
  }

  /// Destroys every pending event without running it.
  void clear();

  /// Callback captures up to this size are stored inline (no allocation).
  static constexpr size_t kInlineBytes = 80;
  /// Bit position of the EventClass within the ordering seq; the low 62
  /// bits are the per-queue insertion counter.
  static constexpr int kClassShift = 62;
  /// Virtual time covered by one wheel slot (2^12 ticks = 4.096 us).
  static constexpr int kQuantumShift = 12;
  /// Wheel slots; window = kWheelSlots << kQuantumShift (~33.5 ms).
  static constexpr size_t kWheelSlots = size_t{1} << 13;

 private:
  struct Node {
    Tick time;
    uint64_t seq;
    Node* next;  // wheel-slot chain / free-list link
    void (*run_and_destroy)(Node*);
    void (*destroy)(Node*);
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  static_assert(sizeof(Node) == 128, "event record should stay two cache lines");

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t);
  }

  template <typename Fn>
  static void run_inline(Node* n) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(n->storage));
    (*f)();
    f->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(Node* n) {
    std::launder(reinterpret_cast<Fn*>(n->storage))->~Fn();
  }
  template <typename Fn>
  static void run_boxed(Node* n) {
    Fn* f;
    std::memcpy(&f, n->storage, sizeof(f));
    (*f)();
    delete f;
  }
  template <typename Fn>
  static void destroy_boxed(Node* n) {
    Fn* f;
    std::memcpy(&f, n->storage, sizeof(f));
    delete f;
  }

  /// Heap element: the ordering key is duplicated out of the node so
  /// sift compares stay inside the contiguous heap array instead of
  /// chasing pointers into the slab.
  struct Entry {
    Tick time;
    uint64_t seq;
    Node* node;
  };

  /// Heap comparator: min-heap on (time, seq) via std::*_heap.
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static constexpr size_t kChunkNodes = 512;
  static constexpr size_t kBitmapWords = kWheelSlots / 64;

  Node* alloc_node() {
    if (free_list_ == nullptr) grow_slab();
    Node* n = free_list_;
    free_list_ = n->next;
    return n;
  }
  void free_node(Node* n) {
    n->next = free_list_;
    free_list_ = n;
  }
  void grow_slab();

  void insert(Node* n) {
    const int64_t q = static_cast<int64_t>(n->time >> kQuantumShift);
    if (q <= cursor_q_) {
      // The slot covering this time is already being drained (or the time
      // is in the past); the near heap restores exact (time, seq) order.
      near_.push_back(Entry{n->time, n->seq, n});
      std::push_heap(near_.begin(), near_.end(), After{});
    } else if (q < wheel_base_q_ + static_cast<int64_t>(kWheelSlots)) {
      const size_t idx = static_cast<size_t>(q - wheel_base_q_);
      n->next = slots_[idx];
      slots_[idx] = n;
      occupied_[idx >> 6] |= uint64_t{1} << (idx & 63);
    } else {
      far_.push_back(Entry{n->time, n->seq, n});
      std::push_heap(far_.begin(), far_.end(), After{});
    }
    ++size_;
  }

  size_t find_occupied_from(size_t start) const {
    if (start >= kWheelSlots) return kWheelSlots;
    size_t w = start >> 6;
    uint64_t word = occupied_[w] & (~uint64_t{0} << (start & 63));
    while (word == 0) {
      if (++w == kBitmapWords) return kWheelSlots;
      word = occupied_[w];
    }
    return (w << 6) + static_cast<size_t>(std::countr_zero(word));
  }

  /// Moves one wheel slot's chain into near_. Pre: near_ is empty, so a
  /// single-node chain (the common, sparse case) needs no heap repair.
  void drain_slot(size_t idx) {
    Node* n = slots_[idx];
    slots_[idx] = nullptr;
    occupied_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
    while (n != nullptr) {
      Node* next = n->next;
      near_.push_back(Entry{n->time, n->seq, n});
      n = next;
    }
    if (near_.size() > 1) std::make_heap(near_.begin(), near_.end(), After{});
  }

  /// Moves events between tiers until near_ holds the minimum (no-op when
  /// near_ is already populated or the queue is empty).
  void advance() {
    while (near_.empty() && size_ > 0) {
      const int64_t start = cursor_q_ + 1 - wheel_base_q_;  // >= 0 by invariant
      const size_t idx = find_occupied_from(static_cast<size_t>(start));
      if (idx != kWheelSlots) {
        cursor_q_ = wheel_base_q_ + static_cast<int64_t>(idx);
        drain_slot(idx);
        return;
      }
      rebase_from_far();  // size_ > 0 and wheel empty => far_ is non-empty
    }
  }

  void rebase_from_far();

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  Node* free_list_ = nullptr;

  // Tier 1: events at quanta <= cursor_q_, ordered exactly by (time, seq).
  std::vector<Entry> near_;
  // Tier 2: the wheel; slot index = quantum - wheel_base_q_.
  std::vector<Node*> slots_;
  std::vector<uint64_t> occupied_;
  int64_t wheel_base_q_ = 0;
  int64_t cursor_q_ = -1;
  // Tier 3: overflow heap for quanta beyond the wheel window.
  std::vector<Entry> far_;

  uint64_t next_seq_ = 0;
  size_t size_ = 0;
};

}  // namespace epx::sim
