// Online invariant monitors: continuous safety checking on the live run.
//
// The hub is the repo's only atomic-multicast oracle: tests arm it
// before adding replicas and assert a clean run, and traced bench runs
// (--trace-out) arm it too. A divergence surfaces at the first bad
// delivery, with the offending stream/instance in the diagnostic,
// instead of after the run. Three monitors cover the paper's core
// safety properties:
//
//   * Order   — the atomic-multicast contract (paper §III), checked on
//     each group's canonical delivery sequence (the first registered
//     replica to reach an ordinal defines it):
//       - agreement: every other registered member delivers the same
//         prefix. The canonical window is trimmed below the slowest
//         member, so memory is bounded by group skew, not run length;
//       - integrity: no command id appears twice in a group's sequence
//         within kDedupWindow ordinals (the replica's own dedup window,
//         so a retry a replica has legitimately forgotten never fires);
//       - pairwise order: two groups that both deliver m and m' deliver
//         them in the same relative order. Each command's canonical
//         sightings (group, incarnation, ordinal) live in a FIFO of at
//         most kDedupWindow ids. When group h delivers an id group g
//         already delivered, that is a match (ordinal_g, ordinal_h);
//         in a correct run consecutive matches of a group pair rise in
//         both coordinates, so comparing each match with the pair's
//         previous one finds every inversion with one entry per pair.
//     Registering into an empty group (re)founds it: a new incarnation
//     whose ordinals restart at 0. Sightings and pair state of an older
//     incarnation are never compared with it.
//   * Gap     — gap-free decided instance sequences per stream: a
//     learner must hand instance n+1 to the merger after instance n
//     unless it legitimately jumped over a trimmed prefix (which the
//     learner reports via on_learner_jump).
//   * Align   — identical merge-point alignment on subscribe (paper
//     Fig. 2): every member of a group must compute the same merge
//     point M for the same subscribe command, or deliveries after the
//     switch-on point would interleave differently per replica.
//
// A violation is recorded (diagnostic string, `monitor.violations`
// counter, EPX_ERROR log) and the bound flight recorder — if any —
// dumps a post-mortem on the first one. Monitors never abort the run:
// tests assert `violation_count() == 0` (or the opposite, for injection
// tests).
//
// Disabled by default: EVERY hook — including membership registration
// and learner reset/jump — starts with one enabled_ branch, so benches
// that leave monitoring off pay a single predictable branch per
// delivery. The disabled hub must also be completely inert because
// shard handlers call in from worker threads on the parallel engine;
// an enabled hub forces the serial windowed fallback (sim/simulation.cc
// run_until_windowed), which is the hub's only thread-safety story.
// Arm monitors before adding replicas: a hub enabled mid-run has no
// registration baseline (the gap monitor self-seeds on first delivery,
// the order monitor checks only registered members).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/units.h"

namespace epx::obs {

class FlightRecorder;

struct Violation {
  std::string monitor;  ///< "order" | "gap" | "align"
  Tick time = 0;
  uint64_t group = 0;
  uint32_t node = 0;
  uint32_t stream = 0;
  std::string detail;  ///< human-readable diagnostic (offending ids)
};

class MonitorHub {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void bind_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  /// Recorder dumped on the first violation (optional).
  void bind_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // --- order monitor: group membership and deliveries ------------------
  // Only registered replicas are checked. A replica that joins a group
  // mid-stream (state-transfer restore) or is re-labelled into a new
  // shard must (re)register at its current position: registration
  // defines ordinal 0 as the member's next delivery, which is sound
  // because group reconfigurations take effect at the same merged-
  // sequence position on every member (they are delivered commands).
  void register_replica(uint64_t group, uint32_t node);
  void deregister_replica(uint64_t group, uint32_t node);

  void on_deliver(uint64_t group, uint32_t node, uint32_t stream, uint64_t cmd_id,
                  Tick now) {
    if (!enabled_) return;
    on_deliver_impl(group, node, stream, cmd_id, now);
  }

  // --- gap monitor: learner instance sequences -------------------------
  /// Learner (re)started and will next deliver `from_instance`.
  void on_learner_reset(uint32_t node, uint32_t stream, uint64_t from_instance);
  /// Learner legitimately jumped over a trimmed prefix to `to_instance`.
  void on_learner_jump(uint32_t node, uint32_t stream, uint64_t to_instance);

  void on_learner_deliver(uint32_t node, uint32_t stream, uint64_t instance,
                          Tick now) {
    if (!enabled_) return;
    on_learner_deliver_impl(node, stream, instance, now);
  }

  // --- alignment monitor: merge points on subscribe --------------------
  void on_merge_point(uint64_t group, uint32_t node, uint32_t stream,
                      uint64_t merge_point, uint64_t subscribe_id, Tick now) {
    if (!enabled_) return;
    on_merge_point_impl(group, node, stream, merge_point, subscribe_id, now);
  }

  /// Stored diagnostics (capped at kMaxStored; see violation_count()).
  const std::vector<Violation>& violations() const { return violations_; }
  /// Total violations observed, including ones past the storage cap.
  uint64_t violation_count() const { return total_violations_; }
  /// One-line summary of every violation (test diagnostics).
  std::string summary() const;

  void clear();

  static constexpr size_t kMaxStored = 64;
  /// Integrity and pairwise-order window, in command ids. Must not
  /// exceed the replica's delivery-dedup window (elastic/replica.cc).
  static constexpr uint64_t kDedupWindow = 1 << 17;

 private:
  struct GroupState {
    std::deque<uint64_t> canonical;  ///< delivered cmd ids from `base` on
    uint64_t base = 0;               ///< ordinal of canonical.front()
    uint64_t incarnation = 0;        ///< bumped each time the group is founded
    std::map<uint32_t, uint64_t> position;  ///< next ordinal per member
  };
  /// Where one group's canonical sequence holds a command.
  struct Sighting {
    uint64_t group = 0;
    uint64_t incarnation = 0;
    uint64_t ordinal = 0;
  };
  /// Last command both groups of a pair delivered, with its ordinal in
  /// the lower-numbered (`lo`) and higher-numbered (`hi`) group.
  struct Match {
    uint64_t cmd_id = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
  };
  struct MergePointState {
    uint64_t merge_point = 0;
    uint32_t first_node = 0;
  };

  void on_deliver_impl(uint64_t group, uint32_t node, uint32_t stream,
                       uint64_t cmd_id, Tick now);
  void on_learner_deliver_impl(uint32_t node, uint32_t stream, uint64_t instance,
                               Tick now);
  void on_merge_point_impl(uint64_t group, uint32_t node, uint32_t stream,
                           uint64_t merge_point, uint64_t subscribe_id, Tick now);
  void trim_group(GroupState& g);
  /// Integrity and pairwise-order checks for a new canonical entry.
  void check_canonical(uint64_t group, const GroupState& g, uint64_t ordinal,
                       uint32_t node, uint32_t stream, uint64_t cmd_id, Tick now);
  void check_pair(const Sighting& first, uint64_t group, uint64_t ordinal,
                  uint32_t node, uint32_t stream, uint64_t cmd_id, Tick now);
  void report(Violation v);

  bool enabled_ = false;
  MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* recorder_ = nullptr;

  std::map<uint64_t, GroupState> groups_;
  uint64_t incarnations_ = 0;
  /// cmd id -> its sightings, one per group; ids evicted in FIFO order.
  std::unordered_map<uint64_t, std::vector<Sighting>> sightings_;
  std::deque<uint64_t> sighting_order_;
  /// (lo group, hi group) -> last match of the pair.
  std::map<std::pair<uint64_t, uint64_t>, Match> last_match_;
  /// (node, stream) -> next expected instance; absent until reset/first
  /// delivery.
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> next_instance_;
  /// (group, subscribe cmd id) -> first announced merge point.
  std::map<std::pair<uint64_t, uint64_t>, MergePointState> merge_points_;

  std::vector<Violation> violations_;
  uint64_t total_violations_ = 0;
};

}  // namespace epx::obs
