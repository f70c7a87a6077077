// Report layer: registry-keyed columns, rendering after role death, and
// the JSON snapshot exporter.
//
// The lifetime regression here is the one the name-based columns were
// built to kill: the old report structs held raw pointers into role
// objects (a learner's delivery series, a client's latency windows). An
// elastic unsubscribe destroys the stream's learner mid-run; rendering
// the report afterwards used to walk freed state. Columns now name
// registry-owned metrics, which outlive every role.
#include <gtest/gtest.h>

#include <cstdio>

#include "harness/cluster.h"
#include "harness/load_client.h"
#include "harness/report.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::LoadClient;

TEST(ReportTest, RendersAfterLearnerDestroyedByUnsubscribe) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  const auto s2 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1, s2});

  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 512;
  cfg.route = [s2] { return s2; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);
  client->stop();

  const std::string s2_learner = obs::metric_key(
      "learner.delivered", {{"node", r1->name()}, {"stream", std::to_string(s2)}});
  const std::string s2_delivered = obs::metric_key(
      "replica.delivered", {{"node", r1->name()}, {"stream", std::to_string(s2)}});
  const obs::MetricsRegistry& metrics = cluster.sim().metrics();
  const obs::Counter* learner_counter = metrics.find_counter(s2_learner);
  ASSERT_NE(learner_counter, nullptr);
  EXPECT_GT(learner_counter->total(), 0u);

  // Unsubscribe destroys replica 1's learner for S2.
  cluster.controller().unsubscribe(1, s2, s1);
  Tick deadline = cluster.now() + 10 * kSecond;
  while (r1->merger().subscribed_to(s2) && cluster.now() < deadline) {
    cluster.run_for(100 * kMillisecond);
  }
  ASSERT_FALSE(r1->merger().subscribed_to(s2));
  cluster.run_for(1 * kSecond);
  const uint64_t delivered_before = learner_counter->total();
  cluster.run_for(2 * kSecond);

  // The registry still owns the dead learner's metrics; the report
  // renders them (plus live columns) without touching freed role state.
  const Tick end = cluster.now();
  const std::string table = harness::render_rate_table(
      metrics, "after unsubscribe",
      {{"s2.learner", s2_learner, 1.0},
       {"s2.replica", s2_delivered, 1.0},
       {"cli", obs::metric_key("client.completions", {{"node", client->name()}}), 1.0}},
      0, end);
  EXPECT_NE(table.find("s2.learner"), std::string::npos);
  EXPECT_EQ(metrics.find_counter(s2_learner)->total(), delivered_before)
      << "a destroyed learner's counter must survive, frozen";

  const std::string cpu = harness::render_cpu_table(
      metrics, "cpu", {{"replica1", obs::metric_key("cpu.busy", {{"node", r1->name()}})}},
      0, end);
  EXPECT_NE(cpu.find('%'), std::string::npos);
}

TEST(ReportTest, MissingMetricsRenderAsZeros) {
  obs::MetricsRegistry metrics;
  const std::string table = harness::render_rate_table(
      metrics, "empty", {{"ghost", "does.not.exist{node=gone}", 1.0}}, 0, 2 * kSecond);
  EXPECT_NE(table.find("==== empty ===="), std::string::npos);
  EXPECT_NE(table.find("         0.0"), std::string::npos);
  const std::string lat = harness::render_latency_table(
      metrics, "lat", {{"p95(ms)", "no.timer", 0.95}}, 0, kSecond);
  EXPECT_NE(lat.find("        0.00"), std::string::npos);
}

TEST(ReportTest, RateTableFormatsMatchLegacyLayout) {
  obs::MetricsRegistry metrics;
  obs::Counter& c = metrics.counter("ops", {{"node", "n1"}});
  c.add(100 * kMillisecond, 1500);  // window 0 -> 1500.0/s
  c.add(kSecond + 1, 250);          // window 1 -> 250.0/s
  const std::string table = harness::render_rate_table(
      metrics, "T", {{"ops", "ops{node=n1}", 1.0}}, 0, 2 * kSecond);
  EXPECT_EQ(table,
            "\n==== T ====\n"
            "  t(s)          ops\n"
            "     0       1500.0\n"
            "     1        250.0\n");
}

TEST(ReportTest, CpuTableReportsBusyShareOfWindow) {
  obs::MetricsRegistry metrics;
  // 250 ms busy in window 0 = 25.0%.
  metrics.counter("cpu.busy", {{"node", "n1"}})
      .add(kMillisecond, static_cast<uint64_t>(250 * kMillisecond));
  const std::string table = harness::render_cpu_table(
      metrics, "C", {{"n1", "cpu.busy{node=n1}"}}, 0, kSecond);
  EXPECT_NE(table.find("       25.0%"), std::string::npos);
}

TEST(ReportTest, StageTableRendersCountsAndQuantiles) {
  obs::MetricsRegistry metrics;
  obs::Timer& skew = metrics.timer("merge.skew_wait");
  for (int i = 0; i < 100; ++i) {
    skew.record(0, 2 * kMillisecond);  // p50 and p99 both ~2 ms
  }
  const std::string table = harness::render_stage_table(
      metrics, "Stages",
      {{"merge-skew-wait", "merge.skew_wait"}, {"absent", "no.such.timer"}});
  EXPECT_NE(table.find("==== Stages ===="), std::string::npos);
  EXPECT_NE(table.find("stage"), std::string::npos);
  EXPECT_NE(table.find("p99(ms)"), std::string::npos);
  // The populated row shows its count and millisecond quantiles (the
  // histogram is log-bucketed, so derive the expected text from it).
  char row[96];
  std::snprintf(row, sizeof(row), "%-22s %12llu %12.3f %12.3f", "merge-skew-wait",
                static_cast<unsigned long long>(skew.total().count()),
                to_millis(skew.total().quantile(0.50)),
                to_millis(skew.total().quantile(0.99)));
  EXPECT_NE(table.find(row), std::string::npos) << table;
  // A missing timer renders zeros, like every other column type.
  EXPECT_NE(table.find("absent"), std::string::npos);
  EXPECT_NE(table.find("            0        0.000        0.000"),
            std::string::npos)
      << table;
}

TEST(ReportTest, DefaultStageRowsNameTheSpanMetrics) {
  const auto rows = harness::default_stage_rows();
  ASSERT_GE(rows.size(), 6u);
  bool has_skew = false;
  bool has_e2e = false;
  for (const auto& row : rows) {
    if (row.metric == "merge.skew_wait") has_skew = true;
    if (row.metric == "span.e2e") has_e2e = true;
  }
  EXPECT_TRUE(has_skew);
  EXPECT_TRUE(has_e2e);
}

TEST(ReportTest, JsonSnapshotRoundTripsToDisk) {
  obs::MetricsRegistry metrics;
  metrics.counter("snap.counter").add(0, 11);
  metrics.timer("snap.timer").record(0, 3 * kMillisecond);
  const std::string path = ::testing::TempDir() + "/report_test_snapshot.json";
  ASSERT_TRUE(harness::write_json_snapshot(metrics, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 14, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"snap.counter\""), std::string::npos);
  EXPECT_NE(content.find("\"total\": 11"), std::string::npos);
  EXPECT_NE(content.find("\"snap.timer\""), std::string::npos);
  EXPECT_FALSE(harness::write_json_snapshot(metrics, "/nonexistent-dir/x.json"));
}

TEST(ReportTest, WindowsPastTheRingRenderAsAgedOut) {
  // 1100 virtual seconds of steady activity. The instruments keep the
  // newest 1024 one-second windows (76..1099), so windows 0..75 are
  // unknown, not zero: tables print "-" plus one note, and to_json
  // emits only the retained windows.
  obs::MetricsRegistry metrics;
  obs::Counter& ops = metrics.counter("ops");
  obs::Counter& busy = metrics.counter("cpu.busy");
  obs::Timer& lat = metrics.timer("lat");
  const Tick end = 1100 * kSecond;
  for (Tick t = 0; t < end; t += kSecond) {
    ops.add(t, 10);
    busy.add(t, static_cast<uint64_t>(250 * kMillisecond));
    lat.record(t, 2 * kMillisecond);
  }
  const auto count = [](const std::string& text, const std::string& needle) {
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };

  const std::string rate =
      harness::render_rate_table(metrics, "R", {{"ops", "ops", 1.0}}, 0, end);
  EXPECT_NE(rate.find("\n     0            -\n"), std::string::npos);
  EXPECT_NE(rate.find("\n    75            -\n"), std::string::npos);
  EXPECT_NE(rate.find("\n    76         10.0\n"), std::string::npos);
  EXPECT_EQ(count(rate, "            -\n"), 76u);
  EXPECT_EQ(count(rate, "--telemetry-out"), 1u);

  const std::string cpu =
      harness::render_cpu_table(metrics, "C", {{"n1", "cpu.busy"}}, 0, end);
  EXPECT_NE(cpu.find("\n    75            -\n"), std::string::npos);
  EXPECT_NE(cpu.find("\n    76        25.0%\n"), std::string::npos);
  EXPECT_EQ(count(cpu, "--telemetry-out"), 1u);

  const std::string latency =
      harness::render_latency_table(metrics, "L", {{"p95", "lat", 0.95}}, 0, end);
  EXPECT_NE(latency.find("\n    75            -\n"), std::string::npos);
  char row[64];
  std::snprintf(row, sizeof(row), "\n    76 %12.2f\n",
                to_millis(lat.window_at(76)->quantile(0.95)));
  EXPECT_NE(latency.find(row), std::string::npos) << latency;
  EXPECT_EQ(count(latency, "--telemetry-out"), 1u);

  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"first_window\": 76, \"rate_per_sec\": [10, "), std::string::npos);
  const size_t begin = json.find('[', json.find("\"ops\""));
  const std::string rates = json.substr(begin, json.find(']', begin) - begin);
  EXPECT_EQ(count(rates, ","), 1023u) << "one rate per retained window";
}

// --- timeline export (tools/epx-report) ----------------------------------

obs::TelemetrySample telemetry_sample(uint32_t node, uint64_t seq, Tick end) {
  obs::TelemetrySample sample;
  sample.node = node;
  sample.seq = seq;
  sample.window_start = end - 100 * kMillisecond;
  sample.window_end = end;
  obs::TelemetryPoint p;
  p.key = obs::intern_key("replica.delivered{node=replica1}");
  p.kind = obs::PointKind::kCounter;
  p.v0 = 5;
  p.v1 = static_cast<double>(5 * seq);
  sample.points.push_back(std::move(p));
  return sample;
}

// Pins the epx-timeline/v1 shape that tools/epx-report/timeline_schema.json
// declares and validate_timeline.py enforces in CI. A renderer change
// that breaks any field here needs a schema bump, not a silent drift.
TEST(ReportTest, TimelineJsonMatchesSchemaV1Shape) {
  obs::TimeSeriesStore store;
  store.ingest(telemetry_sample(7, 1, 100 * kMillisecond));
  store.ingest(telemetry_sample(7, 2, 200 * kMillisecond));

  obs::SloEngine slo;
  slo.add_rule(obs::SloRule::counter_rate("burn", "replica.delivered", 1.0));
  slo.evaluate(telemetry_sample(7, 3, 300 * kMillisecond));

  obs::TraceEvent ev;
  ev.time = 150 * kMillisecond;
  ev.kind = obs::TraceKind::kCrash;
  ev.node = 7;

  const std::string json = obs::render_timeline_json(
      store, {ev}, &slo, /*end=*/1 * kSecond, /*interval=*/100 * kMillisecond);

  EXPECT_NE(json.find("\"schema\": \"epx-timeline/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"interval_ns\": 100000000"), std::string::npos);
  EXPECT_NE(json.find("\"end_ns\": 1000000000"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"points\": 2"), std::string::npos);
  // events: the full TraceEvent tuple, kind by name.
  EXPECT_NE(json.find("\"kind\": \"crash\""), std::string::npos);
  EXPECT_NE(json.find("\"time_ns\": 150000000"), std::string::npos);
  // series: key/node/kind/downsample_runs plus fixed-width point arrays.
  EXPECT_NE(json.find("\"key\": \"replica.delivered{node=replica1}\""),
            std::string::npos);
  EXPECT_NE(json.find("\"node\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"downsample_runs\": 0"), std::string::npos);
  EXPECT_NE(json.find("[100000000,5,5,0,0]"), std::string::npos);
  // slo: declared rules and the fired violation referencing one.
  EXPECT_NE(json.find("\"id\": \"burn\""), std::string::npos);
  EXPECT_NE(json.find("\"as_rate\": true"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"burn\""), std::string::npos);
}

// Pins the flight-dump "telemetry" section: a dump taken after an SLO
// breach (or any reason) carries the trailing windows of every series
// the monitor had ingested, capped by bind_telemetry's window count.
TEST(ReportTest, FlightDumpCarriesTrailingTelemetryWindows) {
  obs::MetricsRegistry metrics;
  obs::Trace trace;
  obs::FlightRecorder recorder(&metrics, &trace);

  obs::TimeSeriesStore store;
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    store.ingest(telemetry_sample(7, seq, seq * 100 * kMillisecond));
  }
  recorder.bind_telemetry(&store, /*windows=*/4);

  const std::string json = recorder.dump("slo:burn", 800 * kMillisecond);
  EXPECT_NE(json.find("\"reason\": \"slo:burn\""), std::string::npos);
  const size_t telemetry_at = json.find("\"telemetry\": {\"series\": [");
  ASSERT_NE(telemetry_at, std::string::npos);
  EXPECT_NE(json.find("\"key\": \"replica.delivered{node=replica1}\""),
            std::string::npos);
  // Only the trailing 4 of the 8 ingested windows appear: the first kept
  // point is window 5, and window 4 is absent.
  EXPECT_NE(json.find("[500000000,5,25,0,0]"), std::string::npos);
  EXPECT_EQ(json.find("[400000000,5,20,0,0]"), std::string::npos);
  // Unbound recorders still emit the (empty) section, keeping the dump
  // schema stable for consumers.
  obs::FlightRecorder bare(&metrics, &trace);
  EXPECT_NE(bare.dump("r", 1).find("\"telemetry\": {\"series\": []}"),
            std::string::npos);
}

}  // namespace
}  // namespace epx
