// Tunable parameters of a Paxos stream.
//
// Defaults mirror the paper's setup (§VII-A): lambda = 4000 slots/sec,
// delta_t = 100 ms, 3 acceptors per stream. CPU cost knobs drive the
// simulator's resource model; they are calibrated once in the harness
// and shared by all experiments.
#pragma once

#include <cstddef>

#include "util/units.h"

namespace epx::paxos {

struct Params {
  // --- batching & pipelining -------------------------------------------
  size_t batch_max_bytes = 64 * 1024;  ///< flush batch at this many bytes
  size_t batch_max_count = 64;         ///< ... or this many commands
  Tick batch_max_delay = 2 * kMillisecond;  ///< ... or this much delay
  size_t window = 64;  ///< max undecided instances in flight

  // --- skip pacing (paper §III-B, §VII-A) --------------------------------
  double lambda = 4000.0;          ///< max virtual throughput, slots/sec
  Tick delta_t = 100 * kMillisecond;  ///< throughput sampling interval
  /// Skip proposals are spread at this finer interval so an idle stream's
  /// position advances smoothly at lambda (one big skip per delta_t would
  /// add up-to-delta_t merge delay to every co-subscribed stream).
  Tick skip_interval = 10 * kMillisecond;

  /// Admission throttle at the coordinator in commands/sec; 0 disables.
  /// Used by the Fig. 3 experiment ("limited the single stream
  /// throughput to 30%").
  double admission_rate = 0.0;

  // --- failure detection -------------------------------------------------
  Tick heartbeat_interval = 50 * kMillisecond;
  Tick leader_timeout = 300 * kMillisecond;

  // --- recovery ------------------------------------------------------------
  size_t recover_chunk = 128;       ///< instances per RecoverReply
  Tick learner_gap_timeout = 20 * kMillisecond;
  /// Coordinator suppresses duplicate command ids younger than this;
  /// must stay below the clients' retry timeout (LoadClient::Config and
  /// kv::KvClient::Config retry_timeout, ~1 s as in paper §VII-D) so
  /// genuine re-sends get re-ordered.
  Tick dedup_ttl = 600 * kMillisecond;

  // --- log trimming (paper §VI) --------------------------------------------
  /// When true, the coordinator trims acceptor logs below the slowest
  /// reporting learner minus trim_backlog instances.
  bool auto_trim = false;
  Tick trim_interval = 2 * kSecond;
  Tick learner_report_interval = 1 * kSecond;
  /// Instances retained behind the slowest learner — headroom for
  /// in-progress catch-ups and merge-point scans.
  uint64_t trim_backlog = 2000;

  // --- CPU cost model ------------------------------------------------------
  Tick coord_cpu_per_cmd = 25 * kMicrosecond;  ///< per command proposed
  Tick coord_cpu_per_kib = 1 * kMicrosecond;   ///< per payload KiB
  Tick acceptor_cpu_per_msg = 10 * kMicrosecond;
  Tick acceptor_cpu_per_kib = 1 * kMicrosecond;
};

}  // namespace epx::paxos
