#include "registry/monitor_service.h"

#include "util/logging.h"

namespace epx::registry {

namespace {

constexpr size_t kRetention = 512;   ///< ring points kept per series
constexpr size_t kDumpWindows = 32;  ///< telemetry windows per flight dump
/// Monitor CPU per ingested sample, plus per point.
constexpr Tick kCpuPerSample = 2 * kMicrosecond;
constexpr Tick kCpuPerPoint = 200;
/// Agent CPU per scrape, plus per scraped point.
constexpr Tick kAgentCpuPerScrape = 2 * kMicrosecond;
constexpr Tick kAgentCpuPerPoint = 100;

}  // namespace

MonitorService::MonitorService(sim::Simulation* sim, sim::Network* net, NodeId id,
                               std::string name)
    : Process(sim, net, id, std::move(name)) {
  store_.set_retention(kRetention);
  const obs::Labels labels{{"node", this->name()}};
  samples_ = &metrics().counter("telemetry.samples", labels);
  points_ = &metrics().counter("telemetry.points", labels);
  violations_ = &metrics().counter("slo.violations", labels);
  slo_.set_handler([this](const obs::SloViolation& v) { on_violation(v); });
  // Arm the flight recorder with the windowed history: a dump taken for
  // any reason (SLO breach here, monitor violation elsewhere) carries
  // the last N telemetry windows alongside the event ring.
  sim->flight_recorder().bind_telemetry(&store_, kDumpWindows);
}

void MonitorService::on_message(NodeId /*from*/, const net::MessagePtr& msg) {
  switch (msg->type()) {
    case net::MsgType::kTelemetrySample: {
      const auto& sample_msg = static_cast<const TelemetrySampleMsg&>(*msg);
      charge(kCpuPerSample + kCpuPerPoint * static_cast<Tick>(sample_msg.points.size()));
      // Feed the decoded message's points straight through; copying them
      // into a TelemetrySample first costs a vector of interned-key
      // increfs per window on the hot path.
      store_.ingest(sample_msg.node, sample_msg.window_end, sample_msg.points);
      samples_->add(now());
      points_->add(now(), sample_msg.points.size());
      slo_.evaluate(sample_msg.node, sample_msg.window_start,
                    sample_msg.window_end, sample_msg.points);
      break;
    }
    default:
      EPX_WARN << name() << ": unexpected " << msg->debug_string();
  }
}

void MonitorService::on_violation(const obs::SloViolation& v) {
  violations_->add(now());
  trace().record(now(), obs::TraceKind::kLog, v.node, 0,
                 static_cast<uint64_t>(v.value), 0, "slo.violation:" + v.rule);
  EPX_WARN << name() << ": SLO " << v.rule << " breached by " << v.key << " at "
           << format_duration(v.time);
  if (dumped_) return;
  if (sim().threads() > 1) {
    // The recorder snapshots the whole registry; only safe with every
    // shard quiescent. Remember the first breach and dump at the next
    // flush point (end of run_for/run_until).
    if (pending_dump_reason_.empty()) {
      pending_dump_reason_ = "slo:" + v.rule;
      pending_dump_time_ = now();
    }
    return;
  }
  dumped_ = true;
  sim().flight_recorder().dump("slo:" + v.rule, now());
}

void MonitorService::flush_pending_dumps() {
  if (dumped_ || pending_dump_reason_.empty()) return;
  dumped_ = true;
  sim().flight_recorder().dump(pending_dump_reason_, pending_dump_time_);
  pending_dump_reason_.clear();
}

// --- TelemetryAgent --------------------------------------------------------

void TelemetryAgent::start() {
  ++gen_;
  window_start_ = host_->now();
  if (obs::ScrapeSet* set = host_->scrape_set()) set->rebase();
  host_->after(options_.interval, [this, gen = gen_] {
    if (gen != gen_) return;
    tick();
  });
}

void TelemetryAgent::tick() {
  obs::ScrapeSet* set = host_->scrape_set();
  if (set == nullptr || options_.collector == net::kInvalidNode) return;
  auto msg = net::make_mutable_message<TelemetrySampleMsg>();
  msg->node = host_->id();
  msg->seq = ++seq_;
  msg->window_start = window_start_;
  msg->window_end = host_->now();
  msg->points = set->scrape();
  host_->charge(kAgentCpuPerScrape +
                kAgentCpuPerPoint * static_cast<Tick>(msg->points.size()));
  host_->send(options_.collector, std::move(msg));
  window_start_ = host_->now();
  host_->after(options_.interval, [this, gen = gen_] {
    if (gen != gen_) return;
    tick();
  });
}

}  // namespace epx::registry
