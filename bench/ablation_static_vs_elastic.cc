// Ablation B — Elastic Paxos vs the static-subscription baseline.
//
// The paper's core claim (§I, §IV-A): "existing atomic multicast
// protocols are static ... subscriptions can only be changed by stopping
// all replicas, redefining the subscriptions, and restarting the system"
// and "existing solutions often halt the system during reconfiguration."
//
// This bench reconfigures a running broadcast group from stream S1 to
// stream S2 both ways:
//   * static baseline — replicas are stopped, new replica processes are
//     provisioned with the new subscription set and must restart/recover
//     (modelled with a conservative 5 s restart window, far less than a
//     real JVM/VM restart plus state transfer);
//   * Elastic Paxos — prepare + subscribe + unsubscribe at run time.
// Reported: seconds of downtime (windows with < 10% of steady
// throughput) and total completed operations.
#include <cstdio>

#include "bench/bench_common.h"

using namespace epx;            // NOLINT(google-build-using-namespace)
using namespace epx::harness;   // NOLINT(google-build-using-namespace)

namespace {

constexpr Tick kRestartWindow = 5 * kSecond;  // process restart + recovery
constexpr Tick kEnd = 40 * kSecond;
constexpr Tick kReconfigAt = 20 * kSecond;

struct Outcome {
  int downtime_seconds = 0;
  uint64_t completed = 0;
  double steady = 0;
};

Outcome measure(Cluster& cluster, LoadClient* client, const WindowedCounter& series) {
  Outcome out;
  out.steady = series.average_rate(5 * kSecond, 15 * kSecond);
  for (Tick t = kReconfigAt; t < kEnd; t += kSecond) {
    if (series.rate_at(static_cast<size_t>(t / kSecond)) < out.steady * 0.1) {
      ++out.downtime_seconds;
    }
  }
  out.completed = client->completed();
  (void)cluster;
  return out;
}

Outcome run_elastic() {
  auto options = bench::broadcast_options();
  Cluster cluster(options);
  const StreamId s1 = cluster.add_stream();

  elastic::Replica::Config rcfg;
  rcfg.group = 1;
  rcfg.initial_streams = {s1};
  rcfg.params = options.params;
  bench::tune_broadcast_replica(rcfg);
  auto* r1 = cluster.add_replica(rcfg);
  auto* r2 = cluster.add_replica(rcfg);
  (void)r2;

  StreamId active = s1;
  LoadClient::Config cfg;
  cfg.threads = 30;
  cfg.payload_bytes = 32 * 1024;
  cfg.think_time = 24 * kMillisecond;
  cfg.route = [&active] { return active; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_until(kReconfigAt - 5 * kSecond);
  const StreamId s2 = cluster.add_stream();
  cluster.controller().prepare(1, s2, s1);
  cluster.run_until(kReconfigAt);
  cluster.controller().subscribe(1, s2, s1);
  while (!r1->merger().subscribed_to(s2)) cluster.run_for(50 * kMillisecond);
  active = s2;
  cluster.run_for(options.params.delta_t);
  cluster.controller().unsubscribe(1, s1, s2);
  cluster.run_until(kEnd);
  return measure(cluster, client, r1->delivery_series());
}

Outcome run_static() {
  auto options = bench::broadcast_options();
  Cluster cluster(options);
  const StreamId s1 = cluster.add_stream();

  elastic::Replica::Config rcfg;
  rcfg.group = 1;
  rcfg.initial_streams = {s1};
  rcfg.params = options.params;
  bench::tune_broadcast_replica(rcfg);
  auto* r1 = cluster.add_replica(rcfg);
  auto* r2 = cluster.add_replica(rcfg);

  StreamId active = s1;
  LoadClient::Config cfg;
  cfg.threads = 30;
  cfg.payload_bytes = 32 * 1024;
  cfg.think_time = 24 * kMillisecond;
  cfg.route = [&active] { return active; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();

  cluster.run_until(kReconfigAt - 5 * kSecond);
  const StreamId s2 = cluster.add_stream();
  cluster.run_until(kReconfigAt);

  // Static subscriptions: stop everything, restart with the new set.
  r1->crash();
  r2->crash();
  active = s2;
  // New replica processes come up on the new stream after the restart
  // window (process restart + log recovery; no Elastic protocol).
  const WindowedCounter* new_series = nullptr;
  elastic::Replica::Config rcfg2 = rcfg;
  rcfg2.initial_streams = {s2};
  cluster.sim().schedule_after(kRestartWindow, [&cluster, rcfg2, &new_series] {
    auto* n1 = cluster.add_replica(rcfg2);
    cluster.add_replica(rcfg2);
    new_series = &n1->delivery_series();
  });
  cluster.run_until(kEnd);

  // Stitch the two delivery series for downtime accounting.
  WindowedCounter stitched;
  const auto& before = r1->delivery_series();
  for (size_t i = 0; i < before.size(); ++i) {
    if (before.count_at(i) > 0) {
      stitched.add(static_cast<Tick>(i) * kSecond, before.count_at(i));
    }
  }
  if (new_series != nullptr) {
    for (size_t i = 0; i < new_series->size(); ++i) {
      if (new_series->count_at(i) > 0) {
        stitched.add(static_cast<Tick>(i) * kSecond, new_series->count_at(i));
      }
    }
  }
  return measure(cluster, client, stitched);
}

}  // namespace

int main() {
  bench::bench_logging();
  std::printf("Ablation — reconfiguring a running broadcast group: Elastic Paxos "
              "vs the stop-and-restart static baseline (30 threads, 32KB values)\n");

  const Outcome elastic = run_elastic();
  const Outcome is_static = run_static();

  print_header("Results");
  std::printf("%-26s %14s %14s\n", "", "elastic", "static");
  std::printf("%-26s %12d s %12d s\n", "downtime (rate < 10%)", elastic.downtime_seconds,
              is_static.downtime_seconds);
  std::printf("%-26s %14llu %14llu\n", "operations completed",
              static_cast<unsigned long long>(elastic.completed),
              static_cast<unsigned long long>(is_static.completed));
  std::printf("%-26s %10.0f op/s %10.0f op/s\n", "steady rate", elastic.steady,
              is_static.steady);

  print_header("Paper checks");
  char measured[160];
  std::snprintf(measured, sizeof(measured), "elastic %d s vs static %d s downtime",
                elastic.downtime_seconds, is_static.downtime_seconds);
  paper_check("ablation.static-halts",
              "static reconfiguration halts the system; Elastic Paxos does not",
              elastic.downtime_seconds == 0 && is_static.downtime_seconds >= 4, measured);
  std::snprintf(measured, sizeof(measured), "%llu vs %llu ops",
                static_cast<unsigned long long>(elastic.completed),
                static_cast<unsigned long long>(is_static.completed));
  paper_check("ablation.more-work-done",
              "elastic reconfiguration completes strictly more client work",
              elastic.completed > is_static.completed, measured);
  return 0;
}
