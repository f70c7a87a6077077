#include "obs/monitor.h"

#include "obs/flight_recorder.h"
#include "util/logging.h"

namespace epx::obs {

void MonitorHub::register_replica(uint64_t group, uint32_t node) {
  if (!enabled_) return;
  GroupState& g = groups_[group];
  if (g.position.empty()) {
    // (Re)founding member: a new incarnation whose ordinals start at 0.
    g.incarnation = ++incarnations_;
    g.position[node] = 0;
    return;
  }
  if (g.base == 0 && g.canonical.empty()) {
    // The group exists but nothing was delivered yet — this member is a
    // founding member too (members of a re-labelled shard register as
    // each processes the group-change command, which occupies the same
    // merged-sequence position everywhere).
    g.position[node] = 0;
    return;
  }
  // Late joiner into a group with delivery history: left unchecked. The
  // order prefix is not comparable from mid-stream; join consistency is
  // covered by the alignment monitor instead.
}

void MonitorHub::deregister_replica(uint64_t group, uint32_t node) {
  if (!enabled_) return;
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  it->second.position.erase(node);
  if (!it->second.position.empty()) {
    trim_group(it->second);
    return;
  }
  // Dissolved: its sightings go stale with the incarnation; drop its
  // pair state so a re-founded group starts comparing afresh.
  groups_.erase(it);
  for (auto m = last_match_.begin(); m != last_match_.end();) {
    if (m->first.first == group || m->first.second == group) {
      m = last_match_.erase(m);
    } else {
      ++m;
    }
  }
}

void MonitorHub::trim_group(GroupState& g) {
  uint64_t min_pos = ~0ull;
  for (const auto& [node, pos] : g.position) {
    (void)node;
    if (pos < min_pos) min_pos = pos;
  }
  while (g.base < min_pos && !g.canonical.empty()) {
    g.canonical.pop_front();
    ++g.base;
  }
}

void MonitorHub::on_deliver_impl(uint64_t group, uint32_t node, uint32_t stream,
                                 uint64_t cmd_id, Tick now) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  GroupState& g = git->second;
  auto pit = g.position.find(node);
  if (pit == g.position.end()) return;  // unregistered member: unchecked
  const uint64_t ordinal = pit->second++;
  const uint64_t idx = ordinal - g.base;
  if (idx < g.canonical.size()) {
    const uint64_t expected = g.canonical[idx];
    if (expected != cmd_id) {
      Violation v;
      v.monitor = "order";
      v.time = now;
      v.group = group;
      v.node = node;
      v.stream = stream;
      v.detail = "total-order divergence at ordinal " + std::to_string(ordinal) +
                 ": node " + std::to_string(node) + " delivered cmd " +
                 std::to_string(cmd_id) + " (stream " + std::to_string(stream) +
                 "), canonical is cmd " + std::to_string(expected);
      report(std::move(v));
      return;  // do not advance the window past a divergence
    }
  } else {
    // First member to reach this ordinal defines the canonical sequence.
    g.canonical.push_back(cmd_id);
    check_canonical(group, g, ordinal, node, stream, cmd_id, now);
  }
  trim_group(g);
}

void MonitorHub::check_canonical(uint64_t group, const GroupState& g,
                                 uint64_t ordinal, uint32_t node, uint32_t stream,
                                 uint64_t cmd_id, Tick now) {
  auto [it, fresh] = sightings_.try_emplace(cmd_id);
  std::vector<Sighting>& seen = it->second;
  // Sightings from dissolved or re-founded groups are never compared.
  std::erase_if(seen, [this](const Sighting& s) {
    auto other = groups_.find(s.group);
    return other == groups_.end() || other->second.incarnation != s.incarnation;
  });
  for (Sighting& s : seen) {
    if (s.group != group) continue;
    if (ordinal - s.ordinal <= kDedupWindow) {
      Violation v;
      v.monitor = "order";
      v.time = now;
      v.group = group;
      v.node = node;
      v.stream = stream;
      v.detail = "duplicate delivery in group " + std::to_string(group) + ": cmd " +
                 std::to_string(cmd_id) + " (stream " + std::to_string(stream) +
                 ") at ordinal " + std::to_string(ordinal) +
                 ", already delivered at ordinal " + std::to_string(s.ordinal);
      report(std::move(v));
    }
    // A repeat orders nothing new; later repeats count from this one.
    s.ordinal = ordinal;
    return;
  }
  for (const Sighting& s : seen) check_pair(s, group, ordinal, node, stream, cmd_id, now);
  seen.push_back({group, g.incarnation, ordinal});
  if (fresh) {
    sighting_order_.push_back(cmd_id);
    if (sighting_order_.size() > kDedupWindow) {
      sightings_.erase(sighting_order_.front());
      sighting_order_.pop_front();
    }
  }
}

void MonitorHub::check_pair(const Sighting& first, uint64_t group, uint64_t ordinal,
                            uint32_t node, uint32_t stream, uint64_t cmd_id,
                            Tick now) {
  const bool first_is_lo = first.group < group;
  const uint64_t lo_group = first_is_lo ? first.group : group;
  const uint64_t hi_group = first_is_lo ? group : first.group;
  const Match match{cmd_id, first_is_lo ? first.ordinal : ordinal,
                    first_is_lo ? ordinal : first.ordinal};
  auto [it, inserted] = last_match_.try_emplace({lo_group, hi_group}, match);
  if (inserted) return;
  const Match prev = it->second;
  it->second = match;
  if (match.lo > prev.lo && match.hi > prev.hi) return;
  Violation v;
  v.monitor = "order";
  v.time = now;
  v.group = group;
  v.node = node;
  v.stream = stream;
  v.detail = "cross-group order inversion between groups " + std::to_string(lo_group) +
             " and " + std::to_string(hi_group) + ": cmd " + std::to_string(cmd_id) +
             " (stream " + std::to_string(stream) + ") is at ordinal " +
             std::to_string(match.lo) + " in group " + std::to_string(lo_group) +
             " and " + std::to_string(match.hi) + " in group " +
             std::to_string(hi_group) + ", cmd " + std::to_string(prev.cmd_id) +
             " at ordinal " + std::to_string(prev.lo) + " and " +
             std::to_string(prev.hi);
  report(std::move(v));
}

void MonitorHub::on_learner_reset(uint32_t node, uint32_t stream,
                                  uint64_t from_instance) {
  if (!enabled_) return;
  next_instance_[{node, stream}] = from_instance;
}

void MonitorHub::on_learner_jump(uint32_t node, uint32_t stream,
                                 uint64_t to_instance) {
  if (!enabled_) return;
  next_instance_[{node, stream}] = to_instance;
}

void MonitorHub::on_learner_deliver_impl(uint32_t node, uint32_t stream,
                                         uint64_t instance, Tick now) {
  auto [it, inserted] = next_instance_.try_emplace({node, stream}, instance);
  if (!inserted && it->second != instance) {
    Violation v;
    v.monitor = "gap";
    v.time = now;
    v.node = node;
    v.stream = stream;
    v.detail = "decided-instance gap on stream " + std::to_string(stream) +
               " at node " + std::to_string(node) + ": expected instance " +
               std::to_string(it->second) + ", got " + std::to_string(instance);
    report(std::move(v));
  }
  it->second = instance + 1;
}

void MonitorHub::on_merge_point_impl(uint64_t group, uint32_t node, uint32_t stream,
                                     uint64_t merge_point, uint64_t subscribe_id,
                                     Tick now) {
  auto [it, inserted] =
      merge_points_.try_emplace({group, subscribe_id}, MergePointState{merge_point, node});
  if (!inserted && it->second.merge_point != merge_point) {
    Violation v;
    v.monitor = "align";
    v.time = now;
    v.group = group;
    v.node = node;
    v.stream = stream;
    v.detail = "merge-point mismatch for subscribe cmd " +
               std::to_string(subscribe_id) + " (stream " + std::to_string(stream) +
               ", group " + std::to_string(group) + "): node " +
               std::to_string(node) + " aligned at slot " +
               std::to_string(merge_point) + ", node " +
               std::to_string(it->second.first_node) + " at slot " +
               std::to_string(it->second.merge_point);
    report(std::move(v));
  }
}

void MonitorHub::report(Violation v) {
  ++total_violations_;
  if (metrics_ != nullptr) {
    metrics_->counter("monitor.violations", {{"monitor", v.monitor}}).add(v.time);
  }
  // A diverged run keeps diverging; keep the first kMaxStored diagnostics
  // and only count the rest, so a broken run cannot flood memory or logs.
  if (violations_.size() >= kMaxStored) return;
  EPX_ERROR << "monitor[" << v.monitor << "] " << v.detail;
  const bool first = violations_.empty();
  violations_.push_back(std::move(v));
  if (first && recorder_ != nullptr) {
    recorder_->dump("monitor:" + violations_.back().monitor + " " +
                        violations_.back().detail,
                    violations_.back().time);
  }
}

std::string MonitorHub::summary() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += "[" + v.monitor + "] " + v.detail + "\n";
  }
  return out;
}

void MonitorHub::clear() {
  groups_.clear();
  incarnations_ = 0;
  sightings_.clear();
  sighting_order_.clear();
  last_match_.clear();
  next_instance_.clear();
  merge_points_.clear();
  violations_.clear();
  total_violations_ = 0;
}

}  // namespace epx::obs
