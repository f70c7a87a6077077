// Bounded structured trace of protocol events.
//
// Every control-plane transition (skip-run, subscribe alignment,
// takeover, trim, crash/restart) is recorded as a typed, fixed-size event
// with its sim-time stamp into a ring buffer. The ring is bounded: once
// full, the oldest events are overwritten and counted as dropped, so
// tracing can stay on for arbitrarily long runs with O(capacity) memory.
//
// Recording is two pointer-free stores plus a ring-index increment —
// cheap enough for every run. Per-command data-plane stages (propose,
// decide, deliver) are not ring events: the SpanCollector (obs/span.h)
// records them per command, and in the ring their volume would flush the
// control-plane history a flight-recorder dump exists to show. For the
// same reason, an idle stream's skip runs (one per skip_interval, 100
// per virtual second at 10 ms) fold into one counted entry per
// (node, stream) while no event of another kind is recorded in between.
#pragma once

#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/units.h"

namespace epx::obs {

enum class TraceKind : uint8_t {
  kSkipRun,
  kSubscribeBegin,
  kMergePoint,
  kSubscribeComplete,
  kUnsubscribe,
  kPrepare,
  kTakeoverBegin,
  kTakeoverComplete,
  kTrim,
  kCrash,
  kRestart,
  kLog,
};

const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  Tick time = 0;
  TraceKind kind = TraceKind::kLog;
  uint32_t node = 0;    ///< NodeId of the acting process (0 when n/a).
  uint32_t stream = 0;  ///< StreamId the event belongs to (0 when n/a).
  uint32_t runs = 1;    ///< events folded into this entry (kSkipRun only > 1)
  uint64_t a = 0;       ///< kind-specific payload (instance, slot, point...)
  uint64_t b = 0;       ///< kind-specific payload (run length, position...)
  Tick last_time = 0;   ///< time of the last folded event (== time when runs == 1)
  char detail[40] = {};  ///< short free-form annotation, truncated.

  std::string to_string() const;
};

class Trace {
 public:
  explicit Trace(size_t capacity = 4096) : capacity_(capacity) {
    ring_.reserve(capacity_ < 64 ? capacity_ : 64);
  }

  /// Registry counter incremented on every ring overwrite, so a
  /// too-small ring silently truncating evidence becomes visible as
  /// `trace.dropped` instead of only via dropped().
  void bind_drop_counter(Counter* counter) { drop_counter_ = counter; }

  /// Annotation capture (off by default): cluster-shaping control events
  /// — subscribe/unsubscribe, merge points, takeovers, crash/restart —
  /// are additionally copied into a side log that the ring cannot
  /// overwrite, so a run timeline can annotate its full duration however
  /// long the run. Bounded by kMaxAnnotations (drops counted).
  void set_annotation_capture(bool on) { annotate_ = on; }
  std::vector<TraceEvent> annotations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return annotations_;
  }
  uint64_t annotations_dropped() const { return annotation_drops_; }

  static bool is_annotation(TraceKind kind) {
    switch (kind) {
      case TraceKind::kSubscribeBegin:
      case TraceKind::kMergePoint:
      case TraceKind::kSubscribeComplete:
      case TraceKind::kUnsubscribe:
      case TraceKind::kTakeoverBegin:
      case TraceKind::kTakeoverComplete:
      case TraceKind::kCrash:
      case TraceKind::kRestart:
        return true;
      default:
        return false;
    }
  }

  /// Thread-safe: control-plane events can originate on shard workers in
  /// parallel runs (skip-runs, trims, crash timers), so the ring append
  /// takes a mutex. Control-plane events are rare, so the lock is
  /// uncontended; ring ORDER across shards is scheduling-dependent and
  /// is deliberately outside the parallel-determinism contract (traced
  /// runs — spans/monitors armed — are single-threaded and fully
  /// deterministic).
  ///
  /// A kSkipRun whose (node, stream) recorded the last skip-run entry
  /// since the last event of another kind folds into that entry: `time`
  /// and `a` stay the first run's, `b` accumulates the slots, `runs`
  /// counts the runs and `last_time` takes this run's time.
  void record(Tick time, TraceKind kind, uint32_t node = 0, uint32_t stream = 0,
              uint64_t a = 0, uint64_t b = 0, std::string_view detail = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    if (kind == TraceKind::kSkipRun) {
      if (fold_skip_run(time, node, stream, b)) return;
    } else {
      skip_heads_.clear();
    }
    if (ring_.size() >= capacity_ && drop_counter_ != nullptr) {
      drop_counter_->add(time);
    }
    TraceEvent& ev = slot();
    ev.time = time;
    ev.kind = kind;
    ev.node = node;
    ev.stream = stream;
    ev.runs = 1;
    ev.a = a;
    ev.b = b;
    ev.last_time = time;
    if (kind == TraceKind::kSkipRun) skip_heads_.push_back(SkipHead{node, stream, recorded_});
    const size_t n = detail.size() < sizeof(ev.detail) - 1 ? detail.size() : sizeof(ev.detail) - 1;
    if (n > 0) std::memcpy(ev.detail, detail.data(), n);
    ev.detail[n] = '\0';
    if (annotate_ && is_annotation(kind)) {
      if (annotations_.size() < kMaxAnnotations) {
        annotations_.push_back(ev);
      } else {
        ++annotation_drops_;
      }
    }
  }

  /// Events still held in the ring, oldest first.
  std::vector<TraceEvent> events() const;
  /// Events of one kind still held in the ring, oldest first.
  std::vector<TraceEvent> events(TraceKind kind) const;

  size_t capacity() const { return capacity_; }
  size_t size() const { return ring_.size(); }
  /// Ring entries written (a folded skip run adds none).
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  void clear() {
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    skip_heads_.clear();
    annotations_.clear();
    annotation_drops_ = 0;
  }

 private:
  /// The open skip-run entry of one (node, stream): its 1-based ordinal
  /// among the entries written.
  struct SkipHead {
    uint32_t node;
    uint32_t stream;
    uint64_t ordinal;
  };

  bool fold_skip_run(Tick time, uint32_t node, uint32_t stream, uint64_t slots) {
    for (size_t i = 0; i < skip_heads_.size(); ++i) {
      const SkipHead& h = skip_heads_[i];
      if (h.node != node || h.stream != stream) continue;
      if (recorded_ - h.ordinal >= capacity_) {  // overwritten meanwhile
        skip_heads_[i] = skip_heads_.back();
        skip_heads_.pop_back();
        return false;
      }
      TraceEvent& ev = ring_[(h.ordinal - 1) % capacity_];
      ev.b += slots;
      ++ev.runs;
      ev.last_time = time;
      return true;
    }
    return false;
  }

  TraceEvent& slot() {
    ++recorded_;
    if (ring_.size() < capacity_) {
      return ring_.emplace_back();
    }
    TraceEvent& ev = ring_[head_];
    head_ = (head_ + 1) % capacity_;
    return ev;
  }

  static constexpr size_t kMaxAnnotations = 65536;

  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  ///< index of the oldest event once the ring is full.
  uint64_t recorded_ = 0;
  bool annotate_ = false;
  std::vector<TraceEvent> annotations_;  ///< overwrite-proof control events
  uint64_t annotation_drops_ = 0;
  Counter* drop_counter_ = nullptr;  ///< registry-owned `trace.dropped`
  /// Skip-run entries open for folding; emptied by any other kind.
  std::vector<SkipHead> skip_heads_;
};

}  // namespace epx::obs
