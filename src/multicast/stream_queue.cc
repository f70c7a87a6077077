#include "multicast/stream_queue.h"

#include <algorithm>

#include "util/logging.h"

namespace epx::multicast {

void StreamQueue::push_proposal(const ProposalPtr& p) {
  const uint64_t slots = p->slot_count();
  if (slots == 0) return;  // no-op proposal

  const SlotIndex base = p->first_slot;
  const SlotIndex end = base + slots;
  const SlotIndex tail = next_index_ + buffered_;

  if (!initialized_) {
    next_index_ = base;
    initialized_ = true;
  } else if (end <= tail) {
    return;  // entirely below what we already have
  } else if (base > tail) {
    if (buffered_ == 0) {
      // Legitimate jump: the learner caught up from a trim horizon or the
      // merger fast-forwarded past slots that were never fetched.
      next_index_ = base;
    } else {
      EPX_WARN << "StreamQueue S" << id_ << ": non-contiguous push (base=" << base
               << ", tail=" << tail << "), dropping";
      return;
    }
  }

  const SlotIndex clip_from = std::max(base, next_index_ + buffered_);
  // Commands occupy [base, base+n), the skip run [base+n, end).
  const SlotIndex cmd_end = base + p->commands.size();
  if (clip_from < cmd_end) {
    Entry e;
    e.prop = p;  // refcount bump; the command batch itself is shared
    e.next_cmd = static_cast<uint32_t>(clip_from - base);
    e.end_cmd = static_cast<uint32_t>(p->commands.size());
    e.skips = end - cmd_end;
    entries_.push_back(std::move(e));
  } else {
    // Pure skip run (commands clipped away or batch was all skips).
    const uint64_t skip_count = end - clip_from;
    if (!entries_.empty()) {
      // Coalesce onto the previous entry's tail run. Always
      // order-correct: an entry's skips sit after its commands, and this
      // run starts exactly at the buffered tail.
      entries_.back().skips += skip_count;
    } else {
      Entry e;
      e.skips = skip_count;
      entries_.push_back(std::move(e));
    }
  }
  buffered_ += end - clip_from;
}

void StreamQueue::consume() {
  Entry& front = entries_.front();
  if (front.next_cmd < front.end_cmd) {
    ++front.next_cmd;
  } else {
    --front.skips;
  }
  if (front.next_cmd == front.end_cmd && front.skips == 0) entries_.pop_front();
  --buffered_;
  ++next_index_;
}

void StreamQueue::consume_skips(uint64_t n) {
  if (n == 0) return;
  Entry& front = entries_.front();
  front.skips -= n;  // caller guarantees the head is a skip run of >= n
  if (front.next_cmd == front.end_cmd && front.skips == 0) entries_.pop_front();
  buffered_ -= n;
  next_index_ += n;
}

void StreamQueue::fast_forward(SlotIndex index) {
  initialized_ = true;
  if (index <= next_index_) return;
  while (buffered_ > 0 && next_index_ < index) {
    Entry& front = entries_.front();
    if (front.next_cmd < front.end_cmd) {
      const uint64_t want = index - next_index_;
      const uint64_t take = std::min<uint64_t>(front.end_cmd - front.next_cmd, want);
      front.next_cmd += static_cast<uint32_t>(take);
      buffered_ -= take;
      next_index_ += take;
    } else {
      const uint64_t take = std::min<uint64_t>(front.skips, index - next_index_);
      front.skips -= take;
      buffered_ -= take;
      next_index_ += take;
    }
    if (front.next_cmd == front.end_cmd && front.skips == 0) entries_.pop_front();
  }
  next_index_ = std::max(next_index_, index);
}

}  // namespace epx::multicast
