// Size-class freelist pool for message envelopes.
//
// Every message in the simulator is a shared_ptr<const Message>; at the
// paper's throughputs that is hundreds of thousands of allocations per
// simulated second, all short-lived and of a handful of sizes. The pool
// recycles the combined control-block + object allocation that
// std::allocate_shared produces, making the Network::send -> Process
// delivery path allocation-free in steady state.
//
// Thread-confined by design: instance() is thread-local, so each shard
// worker of a parallel simulation (see sim/simulation.h) recycles
// envelopes without synchronisation. Envelopes freed on a different
// thread than they were carved on simply join the freeing thread's
// freelist. Blocks above the pooled ceiling fall through to operator
// new.
//
// Sanitizer builds (-DEPX_SANITIZE=ON) compile the pool as a pass-
// through so ASan retains full use-after-free coverage of message
// lifetimes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace epx::net {

class EnvelopePool {
 public:
  /// The calling thread's pool. Intentionally never destroyed so that
  /// envelopes released during static teardown stay safe; the objects
  /// stay reachable through a process-wide registry, keeping leak
  /// checkers quiet, and cached blocks are trimmed at thread exit.
  static EnvelopePool& instance();

  void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Returns every cached freelist block to the system allocator (live
  /// envelopes are unaffected). Runs automatically when a thread exits.
  void trim();

 private:
  EnvelopePool() = default;

  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 64;  // pools blocks up to 4 KiB

  struct FreeNode {
    FreeNode* next;
  };

  static std::size_t size_class(std::size_t bytes) {
    return (bytes + kGranularity - 1) / kGranularity;
  }

  FreeNode* buckets_[kClasses + 1] = {};
};

/// Minimal allocator adapter so std::allocate_shared draws envelope
/// storage from the pool.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(EnvelopePool::instance().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    EnvelopePool::instance().deallocate(p, n * sizeof(T));
  }

  template <typename U>
  friend bool operator==(const PoolAllocator&, const PoolAllocator<U>&) noexcept {
    return true;
  }
};

}  // namespace epx::net
