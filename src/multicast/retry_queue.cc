#include "multicast/retry_queue.h"

namespace epx::multicast {

void RetryQueue::track(size_t thread, uint64_t id) {
  fifo_.push_back(Entry{host_->now() + timeout_, thread, id});
  if (!armed_) arm(fifo_.back().deadline);
}

void RetryQueue::clear() {
  fifo_.clear();
  armed_ = false;
  ++gen_;
}

void RetryQueue::arm(Tick deadline) {
  armed_ = true;
  host_->after(deadline - host_->now(), [this, gen = gen_] {
    if (gen == gen_) fire();
  });
}

void RetryQueue::fire() {
  armed_ = false;
  const Tick now = host_->now();
  while (!fifo_.empty()) {
    const Entry e = fifo_.front();
    if (!live_(e.thread, e.id)) {
      fifo_.pop_front();  // answered
      continue;
    }
    if (e.deadline > now) break;
    fifo_.pop_front();
    resend_(e.thread);
    fifo_.push_back(Entry{now + timeout_, e.thread, e.id});
  }
  if (!fifo_.empty()) arm(fifo_.front().deadline);
}

}  // namespace epx::multicast
