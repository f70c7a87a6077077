#include "net/pool.h"

#include <mutex>
#include <vector>

namespace epx::net {

namespace {
// Every thread's pool is registered here so the objects stay reachable
// for leak checkers after their thread exits. The pool objects are
// intentionally never destroyed (envelopes released during static or
// late-TLS teardown must still find a live freelist); the bulk of the
// memory — the cached blocks — is returned by trim() at thread exit.
std::mutex g_registry_mu;
std::vector<EnvelopePool*>& pool_registry() {
  static std::vector<EnvelopePool*>* r = new std::vector<EnvelopePool*>;
  return *r;
}

struct ThreadExitTrim {
  EnvelopePool* pool;
  ~ThreadExitTrim() { pool->trim(); }
};
}  // namespace

EnvelopePool& EnvelopePool::instance() {
  // One pool per thread: shard workers allocate and recycle envelopes
  // with no synchronisation. Blocks may be freed on a different thread
  // than they were carved on — they simply join the freeing thread's
  // freelist; any pool can own any block.
  thread_local EnvelopePool* pool = [] {
    auto* p = new EnvelopePool;
    std::lock_guard<std::mutex> lock(g_registry_mu);
    pool_registry().push_back(p);
    return p;
  }();
  thread_local ThreadExitTrim trim_guard{pool};
  return *pool;
}

void EnvelopePool::trim() {
  for (std::size_t cls = 0; cls <= kClasses; ++cls) {
    FreeNode* n = buckets_[cls];
    buckets_[cls] = nullptr;
    while (n != nullptr) {
      FreeNode* next = n->next;
      ::operator delete(static_cast<void*>(n));
      n = next;
    }
  }
}

#if defined(EPX_SANITIZE_BUILD)

// Pass-through under sanitizers: every envelope is a distinct allocation
// so ASan sees the true object lifetimes.
void* EnvelopePool::allocate(std::size_t bytes) {
  return ::operator new(bytes);
}

void EnvelopePool::deallocate(void* p, std::size_t bytes) noexcept {
  (void)bytes;
  ::operator delete(p);
}

#else

void* EnvelopePool::allocate(std::size_t bytes) {
  const std::size_t cls = size_class(bytes);
  if (cls > kClasses) return ::operator new(bytes);
  if (FreeNode* n = buckets_[cls]) {
    buckets_[cls] = n->next;
    return n;
  }
  return ::operator new(cls * kGranularity);
}

void EnvelopePool::deallocate(void* p, std::size_t bytes) noexcept {
  const std::size_t cls = size_class(bytes);
  if (cls > kClasses) {
    ::operator delete(p);
    return;
  }
  auto* n = static_cast<FreeNode*>(p);
  n->next = buckets_[cls];
  buckets_[cls] = n;
}

#endif  // EPX_SANITIZE_BUILD

}  // namespace epx::net
