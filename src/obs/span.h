// Causal lifecycle spans: per-message stage timing for the multicast
// data path.
//
// The trace id of a command IS its globally-unique command id
// (paxos::Command::id), which every message already carries — tracing
// adds no wire bytes and cannot perturb the simulated timing. As the
// command moves through the protocol —
// client enqueue, coordinator propose, acceptor quorum, learner decide,
// merger hold, replica deliver/apply, client reply — each role records
// the transition here with its sim-time stamp. The collector derives
// per-stage durations on the fly and publishes them as registry timers:
//
//   span.propose_wait   client send -> coordinator proposes the batch
//   span.quorum_wait    propose     -> acceptor quorum completes
//   span.durable_wait   quorum      -> acceptor journal record flushed
//                                      (durable-storage runs only)
//   span.learn_wait     decide      -> learner hands it to the merger
//   merge.skew_wait     learner     -> merger releases it (the dMerge
//                                      hold while sibling streams catch
//                                      up — the paper's dominant latency
//                                      term, Benz et al. §V)
//   span.apply          replica state-machine execution (explicit cost)
//   span.e2e            client send -> first replica delivery
//   span.client_rtt     client send -> reply received
//
// Each metric exists in an aggregate and a per-stream flavour
// (`name{stream=S}`), so merge skew can be read per stream as the
// paper's figures require.
//
// Pay-for-what-you-use: when the collector is disabled (the default),
// record() is a single predictable branch and the subsystem leaves no
// other residue on the hot path (no extra Command field, no wire
// bytes). Span
// retention is bounded: all live spans feed the timers, but only every
// `sample_every()`-th trace id is retained for export, and both the
// live table and the retired list are capped with drop accounting.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/units.h"

namespace epx::obs {

enum class SpanStage : uint8_t {
  kClientSend = 0,  ///< client hands the command to the transport
  kPropose,         ///< coordinator batches it into a Paxos proposal
  kDecide,          ///< acceptor quorum completes
  kDurable,         ///< quorum vote's journal record flushed (durable
                    ///< acceptors only; diskless runs never record it)
  kLearn,           ///< learner delivers the instance to the merger
  kDeliver,         ///< merger releases it to the replica (hold ends)
  kApply,           ///< replica executes it (duration-carrying)
  kReply,           ///< client receives the reply
};
inline constexpr size_t kSpanStageCount = 8;

/// Stream value for stages that do not know their stream (kReply); the
/// collector inherits the stream of the span's first event instead.
inline constexpr uint32_t kSpanNoStream = 0xffffffffu;

struct SpanEvent {
  Tick time = 0;
  Tick duration = 0;  ///< nonzero only for kApply (execution cost)
  SpanStage stage = SpanStage::kClientSend;
  uint32_t node = 0;
  uint32_t stream = 0;
};

struct SpanRecord {
  std::vector<SpanEvent> events;  ///< in record order
};

class SpanCollector {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Registry the per-stage timers publish into. Must outlive the
  /// collector; unset means timers are skipped (events still retained).
  void bind_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Retain one in `n` trace ids for export (1 = all). Timers always
  /// see every recorded event regardless of sampling.
  void set_sample_every(uint64_t n) { sample_every_ = n == 0 ? 1 : n; }
  uint64_t sample_every() const { return sample_every_; }

  /// Caps on the live span table and the retired-for-export list.
  void set_capacity(size_t max_live, size_t max_retired) {
    max_live_ = max_live;
    max_retired_ = max_retired;
  }

  /// Records one lifecycle transition of trace id `trace`. A duplicate
  /// (stage, node) pair is ignored (first wins), so client retries and
  /// protocol retransmissions cannot skew the histograms.
  void record(uint64_t trace, SpanStage stage, Tick now, uint32_t node,
              uint32_t stream, Tick duration = 0) {
    if (!enabled_ || trace == 0) return;
    record_impl(trace, stage, now, node, stream, duration);
  }

  /// Spans still in the live table (unit tests; export uses both lists).
  const std::map<uint64_t, SpanRecord>& live() const { return live_; }
  /// Length of the eviction queue; equals live().size() (pinned by the
  /// bounded-memory regression test).
  size_t eviction_queue_size() const { return live_order_.size(); }

  uint64_t recorded_events() const { return recorded_events_; }
  /// Sampled spans that were lost for export: evicted from the live
  /// table after the retired list had already reached its cap.
  uint64_t dropped_spans() const { return dropped_spans_; }

  /// Serialises every retained span (and, when `ring` is given, its
  /// control-plane events) as Chrome trace-event JSON — load the file in
  /// Perfetto / chrome://tracing. Returns the number of trace events
  /// emitted.
  size_t export_chrome_trace(const std::string& path, const Trace* ring = nullptr) const;
  /// Same serialisation, returned as a string (tests).
  std::string chrome_trace_json(const Trace* ring = nullptr) const;

  void clear();

 private:
  void record_impl(uint64_t trace, SpanStage stage, Tick now, uint32_t node,
                   uint32_t stream, Tick duration);
  /// Feeds the timers every interval the span's newest event closes.
  void publish(const SpanRecord& rec);
  void record_metric(size_t metric, uint32_t stream, Tick now, Tick value);
  void append_span_events(std::string& out, uint64_t trace, const SpanRecord& rec,
                          std::map<uint32_t, uint32_t>& nodes, size_t& count) const;

  bool enabled_ = false;
  MetricsRegistry* metrics_ = nullptr;
  uint64_t sample_every_ = 1;
  size_t max_live_ = 1 << 16;
  size_t max_retired_ = 1 << 16;

  std::map<uint64_t, SpanRecord> live_;
  std::deque<uint64_t> live_order_;  ///< live ids in creation order, oldest first
  std::vector<std::pair<uint64_t, SpanRecord>> retired_;
  uint64_t recorded_events_ = 0;
  uint64_t dropped_spans_ = 0;

  // Cached registry handles: [metric][aggregate or per-stream].
  static constexpr size_t kMetricCount = 8;
  Timer* aggregate_[kMetricCount] = {};
  std::map<uint32_t, Timer*> per_stream_[kMetricCount];
};

}  // namespace epx::obs
