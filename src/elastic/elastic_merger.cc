#include "elastic/elastic_merger.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace epx::elastic {

ElasticMerger::ElasticMerger(GroupId group, Hooks hooks)
    : group_(group), hooks_(std::move(hooks)) {}

void ElasticMerger::trace_event(obs::TraceKind kind, StreamId stream, uint64_t a,
                                uint64_t b) {
  if (obs_.trace != nullptr) obs_.trace->record(mnow(), kind, obs_.node, stream, a, b);
}

void ElasticMerger::bootstrap(const std::vector<StreamId>& initial) {
  sigma_ = initial;
  std::sort(sigma_.begin(), sigma_.end());
  sigma_.erase(std::unique(sigma_.begin(), sigma_.end()), sigma_.end());
  for (StreamId s : sigma_) {
    queue(s);
    if (learners_running_.insert(s).second) hooks_.start_learner(s);
  }
  rebuild_sigma_queues();
}

void ElasticMerger::rebuild_sigma_queues() {
  sigma_qs_.clear();
  sigma_qs_.reserve(sigma_.size());
  for (StreamId s : sigma_) sigma_qs_.push_back(&queue(s));
}

void ElasticMerger::restore(const std::vector<std::pair<StreamId, SlotIndex>>& cut,
                            StreamId next_stream) {
  std::vector<StreamId> streams;
  streams.reserve(cut.size());
  for (const auto& [stream, pos] : cut) streams.push_back(stream);
  bootstrap(streams);
  for (const auto& [stream, pos] : cut) queue(stream).fast_forward(pos);
  auto it = std::find(sigma_.begin(), sigma_.end(), next_stream);
  rr_ = (it == sigma_.end()) ? 0 : static_cast<size_t>(it - sigma_.begin());
}

StreamQueue& ElasticMerger::queue(StreamId stream) {
  auto it = queues_.find(stream);
  if (it == queues_.end()) {
    it = queues_.emplace(stream, std::make_unique<StreamQueue>(stream)).first;
  }
  return *it->second;
}

bool ElasticMerger::subscribed_to(StreamId stream) const {
  return std::binary_search(sigma_.begin(), sigma_.end(), stream);
}

void ElasticMerger::advance_from(StreamId current) {
  // Round-robin visits streams in ascending id order; the cursor moves
  // to the first stream with a larger id, wrapping to the start of the
  // next round. Computing the successor by id (rather than by index)
  // stays correct when handle_control just removed a stream.
  if (sigma_.empty()) {
    rr_ = 0;
    return;
  }
  auto it = std::upper_bound(sigma_.begin(), sigma_.end(), current);
  rr_ = (it == sigma_.end()) ? 0 : static_cast<size_t>(it - sigma_.begin());
}

void ElasticMerger::pump() {
  for (;;) {
    bool progressed = false;
    switch (phase_) {
      case Phase::kNormal:
        progressed = step_normal();
        break;
      case Phase::kScanning:
        progressed = step_scanning();
        break;
      case Phase::kAligning:
        progressed = step_aligning();
        break;
    }
    if (!progressed) return;
  }
}

bool ElasticMerger::step_normal() {
  if (sigma_.empty()) return false;
  StreamQueue& q = *sigma_qs_[rr_];
  if (!q.has_next()) return false;

  const StreamId cur = q.id();
  if (q.next_is_value()) {
    const Command cmd = q.peek_value();
    q.consume();
    if (cmd.is_control()) {
      handle_control(cmd);
    } else {
      ++delivered_;
      hooks_.deliver(cmd, cur);
    }
    advance_from(cur);
    return true;
  }

  // Head is a skip. When every subscribed stream heads a skip run — the
  // steady state that skip pacing (lambda) creates on idle streams —
  // consume the aligned prefix min(run lengths) from all of them in one
  // step. Skips deliver nothing, so the merged value order is untouched;
  // the cursor stays put because every stream advanced equally.
  uint64_t bulk = q.head_skip_run();
  for (StreamQueue* sq : sigma_qs_) {
    const uint64_t run = sq->head_skip_run();
    if (run == 0) {
      bulk = 0;
      break;
    }
    bulk = std::min(bulk, run);
  }
  if (bulk > 0) {
    for (StreamQueue* sq : sigma_qs_) sq->consume_skips(bulk);
    return true;
  }
  q.consume();
  advance_from(cur);
  return true;
}

void ElasticMerger::handle_control(const Command& cmd) {
  if (cmd.group != group_) return;  // addressed to another group
  // The controller re-proposes blindly, so a request can be ordered
  // again after a later reconfiguration; that copy must not undo it.
  if (!handled_controls_.insert(cmd.id).second) return;

  switch (cmd.kind) {
    case CommandKind::kSubscribe:
      if (subscribed_to(cmd.target_stream)) return;  // duplicate
      if (phase_ == Phase::kAligning) {
        // One subscription at a time (DESIGN.md §5.4): defer; processed
        // right after the current one completes.
        deferred_subscribes_.push_back(cmd);
        return;
      }
      begin_subscription(cmd);
      return;

    case CommandKind::kUnsubscribe:
      apply_unsubscribe(cmd);
      return;

    case CommandKind::kPrepareHint:
      if (!subscribed_to(cmd.target_stream) &&
          learners_running_.insert(cmd.target_stream).second) {
        queue(cmd.target_stream);
        hooks_.start_learner(cmd.target_stream);
      }
      hooks_.control(cmd);
      return;

    case CommandKind::kApp:
      return;
  }
}

void ElasticMerger::begin_subscription(const Command& cmd) {
  pending_cmd_ = cmd;
  pending_sn_ = cmd.target_stream;
  phase_ = Phase::kScanning;
  scan_begin_ = mnow();
  trace_event(obs::TraceKind::kSubscribeBegin, pending_sn_, cmd.id);
  queue(pending_sn_);
  if (learners_running_.insert(pending_sn_).second) {
    hooks_.start_learner(pending_sn_);
  }
  EPX_DEBUG << "merger G" << group_ << ": scanning S" << pending_sn_ << " for sub "
            << cmd.id;
}

bool ElasticMerger::step_scanning() {
  StreamQueue& q = queue(pending_sn_);
  if (!q.has_next()) return false;  // all delivery stalls until the scan completes
  if (q.next_is_value()) {
    const Command cmd = q.peek_value();
    q.consume();
    if (cmd.kind == CommandKind::kSubscribe && cmd.id == pending_cmd_.id) {
      // Found the twin request at slot b = next_index()-1. Merge point:
      // max over current subscriptions and b+1 (paper Fig. 2).
      SlotIndex merge = q.next_index();  // == b + 1
      for (StreamId s : sigma_) merge = std::max(merge, queue(s).next_index());
      merge_point_ = merge;
      trace_event(obs::TraceKind::kMergePoint, pending_sn_, merge_point_);
      if (obs_.monitors != nullptr) {
        obs_.monitors->on_merge_point(group_, obs_.node, pending_sn_, merge_point_,
                                      pending_cmd_.id, mnow());
      }
      q.fast_forward(merge_point_);
      phase_ = Phase::kAligning;
      EPX_DEBUG << "merger G" << group_ << ": merge point " << merge_point_ << " for S"
                << pending_sn_;
    } else {
      ++discarded_;  // pre-merge-point value of the new stream
      if (obs_.discarded != nullptr) obs_.discarded->add(mnow());
      if (obs_.scan_slots != nullptr) obs_.scan_slots->add(mnow());
    }
  } else {
    // The scan only looks for the twin subscribe request; a whole skip
    // run can never contain it, so swallow it in one step.
    const uint64_t run = q.head_skip_run();
    if (obs_.scan_slots != nullptr) obs_.scan_slots->add(mnow(), run);
    q.consume_skips(run);
  }
  return true;
}

bool ElasticMerger::step_aligning() {
  // Are all subscribed streams at the merge point yet?
  bool all_aligned = true;
  for (StreamId s : sigma_) {
    if (queue(s).next_index() < merge_point_) {
      all_aligned = false;
      break;
    }
  }
  if (all_aligned) {
    complete_subscription();
    return true;
  }

  // Keep delivering the backlog, round-robin over streams still below
  // the merge point (lexicographic order is preserved because every
  // stream is visited at most once per round and aligned streams just
  // sit at the merge point).
  for (size_t probe = 0; probe < sigma_.size(); ++probe) {
    const size_t idx = (rr_ + probe) % sigma_.size();
    StreamQueue& q = *sigma_qs_[idx];
    if (q.next_index() >= merge_point_) continue;  // already aligned
    if (!q.has_next()) return false;               // wait for its learner
    const StreamId cur = q.id();
    if (q.next_is_value()) {
      const Command cmd = q.peek_value();
      q.consume();
      if (cmd.is_control()) {
        handle_control(cmd);
      } else {
        ++delivered_;
        hooks_.deliver(cmd, cur);
      }
    } else {
      // Skips emit nothing, so drain the head run up to the merge point
      // in one step instead of one slot per round.
      const uint64_t take =
          std::min<uint64_t>(q.head_skip_run(), merge_point_ - q.next_index());
      q.consume_skips(take);
    }
    if (phase_ == Phase::kAligning) advance_from(cur);
    return true;
  }
  return false;  // nothing consumable this round
}

void ElasticMerger::apply_unsubscribe(const Command& cmd) {
  auto it = std::find(sigma_.begin(), sigma_.end(), cmd.target_stream);
  if (it == sigma_.end()) return;  // duplicate or unknown
  sigma_.erase(it);
  queues_.erase(cmd.target_stream);
  learners_running_.erase(cmd.target_stream);
  rebuild_sigma_queues();
  trace_event(obs::TraceKind::kUnsubscribe, cmd.target_stream, cmd.id);
  hooks_.stop_learner(cmd.target_stream);
  EPX_DEBUG << "merger G" << group_ << ": unsubscribed S" << cmd.target_stream;
  hooks_.control(cmd);
  // The caller re-computes the cursor via advance_from().
}

void ElasticMerger::complete_subscription() {
  sigma_.insert(std::upper_bound(sigma_.begin(), sigma_.end(), pending_sn_), pending_sn_);
  rebuild_sigma_queues();
  rr_ = 0;  // "S <- first(Sigma)" — all streams are aligned at merge_point_
  phase_ = Phase::kNormal;
  if (obs_.subscribe_latency != nullptr) {
    obs_.subscribe_latency->record(mnow(), mnow() - scan_begin_);
  }
  trace_event(obs::TraceKind::kSubscribeComplete, pending_sn_, merge_point_);
  const Command completed = pending_cmd_;
  pending_sn_ = paxos::kInvalidStream;
  EPX_DEBUG << "merger G" << group_ << ": subscription to S" << completed.target_stream
            << " complete at slot " << merge_point_;
  hooks_.control(completed);

  if (!deferred_subscribes_.empty()) {
    const Command next = deferred_subscribes_.front();
    deferred_subscribes_.pop_front();
    if (!subscribed_to(next.target_stream)) begin_subscription(next);
  }
}

}  // namespace epx::elastic
