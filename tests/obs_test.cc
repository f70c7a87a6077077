// Observability subsystem: metric key canonicalisation, registry
// registration/lookup/iteration, instrument semantics, the bounded
// trace ring, and the EPX_LOG / trace-sink plumbing in util/logging.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace epx {
namespace {

// --- metric_key ----------------------------------------------------------

TEST(MetricKeyTest, NameAloneWhenNoLabels) {
  EXPECT_EQ(obs::metric_key("net.bytes", {}), "net.bytes");
}

TEST(MetricKeyTest, LabelsSortedByKey) {
  EXPECT_EQ(obs::metric_key("replica.delivered",
                            {{"stream", "2"}, {"node", "replica1"}}),
            "replica.delivered{node=replica1,stream=2}");
  // Already-sorted input produces the same canonical key.
  EXPECT_EQ(obs::metric_key("replica.delivered",
                            {{"node", "replica1"}, {"stream", "2"}}),
            "replica.delivered{node=replica1,stream=2}");
}

TEST(MetricKeyTest, SingleLabel) {
  EXPECT_EQ(obs::metric_key("cpu.busy", {{"node", "coord1"}}),
            "cpu.busy{node=coord1}");
}

// --- registry ------------------------------------------------------------

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x", {{"node", "n1"}, {"stream", "3"}});
  // Same metric, labels given in the other order: same instrument.
  obs::Counter& b = registry.counter("x", {{"stream", "3"}, {"node", "n1"}});
  EXPECT_EQ(&a, &b);
  a.add(0, 5);
  EXPECT_EQ(b.total(), 5u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, FindReturnsNullForAbsentKey) {
  obs::MetricsRegistry registry;
  registry.counter("present");
  EXPECT_NE(registry.find_counter("present"), nullptr);
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_EQ(registry.find_gauge("present"), nullptr);  // wrong type
  EXPECT_EQ(registry.find_timer("present"), nullptr);
}

TEST(MetricsRegistryTest, TypesAreSeparateNamespaces) {
  obs::MetricsRegistry registry;
  registry.counter("m");
  registry.gauge("m");
  registry.timer("m");
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_NE(registry.find_counter("m"), nullptr);
  EXPECT_NE(registry.find_gauge("m"), nullptr);
  EXPECT_NE(registry.find_timer("m"), nullptr);
}

TEST(MetricsRegistryTest, IterationIsSortedByKey) {
  obs::MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha", {{"node", "b"}});
  registry.counter("alpha", {{"node", "a"}});
  registry.counter("mid");
  std::vector<std::string> keys;
  for (const auto& [key, counter] : registry.counters()) keys.push_back(key);
  const std::vector<std::string> expected = {"alpha{node=a}", "alpha{node=b}", "mid",
                                             "zeta"};
  EXPECT_EQ(keys, expected);
}

// --- instruments ---------------------------------------------------------

TEST(CounterTest, TotalAndSeries) {
  obs::Counter c;
  c.add(0);
  c.add(100 * kMillisecond, 4);
  c.add(1 * kSecond + 1, 2);
  EXPECT_EQ(c.total(), 7u);
  ASSERT_EQ(c.series().size(), 2u);
  EXPECT_EQ(c.series().count_at(0), 5u);
  EXPECT_EQ(c.series().count_at(1), 2u);
}

TEST(GaugeTest, ValueAndHighWaterMark) {
  obs::Gauge g;
  g.set(4.0);
  g.add(3.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
}

TEST(TimerTest, WindowBoundaryRecords) {
  obs::Timer t;
  // One record in the last tick of window 0, one exactly at the start of
  // window 1: they must land in different window histograms.
  t.record(kSecond - 1, 10);
  t.record(kSecond, 20);
  ASSERT_EQ(t.window_count(), 2u);
  EXPECT_EQ(t.window_at(0)->count(), 1u);
  EXPECT_EQ(t.window_at(1)->count(), 1u);
  EXPECT_EQ(t.total().count(), 2u);
}

TEST(TimerTest, SparseWindowsAreZeroFilled) {
  obs::Timer t;
  t.record(3 * kSecond + 5, 1 * kMillisecond);
  ASSERT_EQ(t.window_count(), 4u);
  EXPECT_EQ(t.window_at(0)->count(), 0u);
  EXPECT_EQ(t.window_at(2)->count(), 0u);
  EXPECT_EQ(t.window_at(3)->count(), 1u);
  EXPECT_EQ(t.window_at(4), nullptr);
}

// Uniform read/write access to Counter and Timer so one ring test covers
// both instruments: a window's sample count (0 when absent) and totals.
void record_one(obs::Counter& c, Tick now) { c.add(now); }
void record_one(obs::Timer& t, Tick now) { t.record(now, 2 * kMillisecond); }
size_t window_count(const obs::Counter& c) { return c.series().size(); }
size_t window_count(const obs::Timer& t) { return t.window_count(); }
uint64_t samples_at(const obs::Counter& c, size_t w) { return c.series().count_at(w); }
uint64_t samples_at(const obs::Timer& t, size_t w) {
  const Histogram* h = t.window_at(w);
  return h == nullptr ? 0 : h->count();
}
uint64_t total_samples(const obs::Counter& c) { return c.total(); }
uint64_t total_samples(const obs::Timer& t) { return t.total().count(); }

template <typename Instrument>
uint64_t resident_samples(const Instrument& inst, size_t from, size_t to) {
  uint64_t n = 0;
  for (size_t w = from; w < to; ++w) n += samples_at(inst, w);
  return n;
}

template <typename Instrument>
void check_ring_bounds() {
  // One sample per window across 100 windows more than the ring holds:
  // only the newest kCapacity stay resident, everything older reads as
  // empty, and totals still cover every sample. This is the memory bound
  // for long-horizon runs — the ring never grows past kCapacity windows
  // no matter how far time advances.
  constexpr size_t kCap = WindowRing<uint64_t>::kCapacity;
  constexpr size_t kWindows = kCap + 100;
  Instrument inst;
  for (size_t w = 0; w < kWindows; ++w) record_one(inst, w * kSecond + 5);
  EXPECT_EQ(window_count(inst), kWindows);
  EXPECT_EQ(total_samples(inst), kWindows);
  EXPECT_EQ(resident_samples(inst, 0, kWindows), kCap);
  EXPECT_EQ(samples_at(inst, 99), 0u);
  EXPECT_EQ(samples_at(inst, 100), 1u);
  EXPECT_EQ(samples_at(inst, kWindows - 1), 1u);

  // A jump wider than the ring ages every retained window out at once;
  // retention restarts at the jump target without allocating the gap...
  constexpr size_t kJump = 100000;
  record_one(inst, kJump * kSecond);
  EXPECT_EQ(window_count(inst), kJump + 1);
  EXPECT_EQ(resident_samples(inst, 0, kJump), 0u);
  EXPECT_EQ(samples_at(inst, kJump), 1u);

  // ...and regrows to the full capacity before it rotates again.
  for (size_t w = kJump + 1; w < kJump + kCap + 5; ++w) record_one(inst, w * kSecond);
  EXPECT_EQ(resident_samples(inst, kJump, kJump + kCap + 5), kCap);
  EXPECT_EQ(samples_at(inst, kJump + 4), 0u);
  EXPECT_EQ(samples_at(inst, kJump + 5), 1u);
  EXPECT_EQ(total_samples(inst), kWindows + kCap + 5);
}

TEST(TimerTest, RingBoundsWindowsOverLongHorizons) {
  check_ring_bounds<obs::Timer>();
  check_ring_bounds<obs::Counter>();

  // Aged-out timer windows read as absent, not as empty histograms.
  obs::Timer t;
  t.record(0, 1);
  t.record(static_cast<Tick>(WindowRing<Histogram>::kCapacity) * kSecond, 1);
  EXPECT_EQ(t.window_at(0), nullptr);
  ASSERT_NE(t.window_at(1), nullptr);
  EXPECT_EQ(t.window_at(1)->count(), 0u);
}

// --- JSON snapshot -------------------------------------------------------

TEST(MetricsRegistryTest, JsonSnapshotShape) {
  obs::MetricsRegistry registry;
  registry.counter("c", {{"node", "n1"}}).add(0, 3);
  registry.gauge("g").set(2.5);
  registry.timer("t").record(0, 2 * kMillisecond);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"c{node=n1}\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"rate_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"timer\""), std::string::npos);
  // Sorted key order is part of the contract (byte-stable snapshots).
  EXPECT_LT(json.find("\"c{node=n1}\""), json.find("\"g\""));
  EXPECT_LT(json.find("\"g\""), json.find("\"t\""));
}

TEST(MetricsRegistryTest, JsonWithoutSeriesOmitsRates) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(0, 1);
  const std::string json = registry.to_json(/*include_series=*/false);
  EXPECT_EQ(json.find("rate_per_sec"), std::string::npos);
  EXPECT_NE(json.find("\"total\": 1"), std::string::npos);
}

// --- trace ring ----------------------------------------------------------

TEST(TraceTest, ControlEventsAlwaysRecorded) {
  obs::Trace trace(16);
  trace.record(5, obs::TraceKind::kSubscribeBegin, 1, 2, 7);
  ASSERT_EQ(trace.size(), 1u);
  const auto events = trace.events();
  EXPECT_EQ(events[0].time, 5);
  EXPECT_EQ(events[0].kind, obs::TraceKind::kSubscribeBegin);
  EXPECT_EQ(events[0].node, 1u);
  EXPECT_EQ(events[0].stream, 2u);
  EXPECT_EQ(events[0].a, 7u);
}

TEST(TraceTest, RingOverwritesOldestAndCountsDropped) {
  obs::Trace trace(4);
  for (Tick t = 0; t < 10; ++t) {
    trace.record(t, obs::TraceKind::kTrim, /*node=*/0, /*stream=*/0,
                 static_cast<uint64_t>(t));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.recorded(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].time, static_cast<Tick>(6 + i)) << "oldest-first order";
  }
}

TEST(TraceTest, DropCounterPublishesRingOverwrites) {
  obs::MetricsRegistry registry;
  obs::Trace trace(4);
  trace.bind_drop_counter(&registry.counter("trace.dropped"));
  for (Tick t = 0; t < 10; ++t) trace.record(t, obs::TraceKind::kTrim);
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(registry.counter("trace.dropped").total(), 6u)
      << "every ring overwrite must also bump the registry counter";
}

TEST(SimulationObsTest, TraceDropsVisibleInRegistry) {
  sim::Simulation sim;
  const size_t cap = sim.trace().capacity();
  for (size_t i = 0; i < cap + 5; ++i) {
    sim.trace().record(0, obs::TraceKind::kTrim);
  }
  const obs::Counter* dropped = sim.metrics().find_counter("trace.dropped");
  ASSERT_NE(dropped, nullptr) << "simulation must pre-bind trace.dropped";
  EXPECT_EQ(dropped->total(), 5u);
}

TEST(TraceTest, EventsFilteredByKind) {
  obs::Trace trace(16);
  trace.record(1, obs::TraceKind::kTrim);
  trace.record(2, obs::TraceKind::kCrash);
  trace.record(3, obs::TraceKind::kTrim);
  EXPECT_EQ(trace.events(obs::TraceKind::kTrim).size(), 2u);
  EXPECT_EQ(trace.events(obs::TraceKind::kCrash).size(), 1u);
  EXPECT_EQ(trace.events(obs::TraceKind::kRestart).size(), 0u);
}

TEST(TraceTest, DetailTruncatedToFixedBuffer) {
  obs::Trace trace(4);
  const std::string long_detail(100, 'x');
  trace.record(0, obs::TraceKind::kLog, 0, 0, 0, 0, long_detail);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  const std::string detail = events[0].detail;
  EXPECT_EQ(detail.size(), sizeof(obs::TraceEvent{}.detail) - 1);
  EXPECT_EQ(detail, std::string(detail.size(), 'x'));
}

TEST(TraceTest, ClearResetsRing) {
  obs::Trace trace(4);
  for (int i = 0; i < 6; ++i) trace.record(i, obs::TraceKind::kTrim);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  trace.record(42, obs::TraceKind::kCrash);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].time, 42);
}

TEST(TraceTest, ConsecutiveSkipRunsFoldIntoOneEntry) {
  obs::Trace trace(16);
  trace.record(10, obs::TraceKind::kSkipRun, /*node=*/3, /*stream=*/1, /*a=*/0, /*b=*/5);
  trace.record(20, obs::TraceKind::kSkipRun, 3, 1, 5, 5);
  trace.record(25, obs::TraceKind::kSkipRun, 4, 2, 0, 7);  // another stream
  trace.record(30, obs::TraceKind::kSkipRun, 3, 1, 10, 5);  // still folds
  trace.record(35, obs::TraceKind::kSkipRun, 4, 2, 7, 7);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.recorded(), 2u);
  auto events = trace.events();
  EXPECT_EQ(events[0].time, 10);
  EXPECT_EQ(events[0].a, 0u) << "the first run's position";
  EXPECT_EQ(events[0].b, 15u) << "slots accumulate";
  EXPECT_EQ(events[0].runs, 3u);
  EXPECT_EQ(events[0].last_time, 30);
  EXPECT_EQ(events[1].stream, 2u);
  EXPECT_EQ(events[1].runs, 2u);
  EXPECT_EQ(events[1].b, 14u);
  const std::string line = events[0].to_string();
  EXPECT_NE(line.find("runs=3"), std::string::npos) << line;
  EXPECT_NE(line.find("last=0.000000"), std::string::npos) << line;

  // Another kind in between closes every open run: order is kept.
  trace.record(40, obs::TraceKind::kMergePoint, 5, 1, 99);
  trace.record(50, obs::TraceKind::kSkipRun, 3, 1, 15, 5);
  ASSERT_EQ(trace.size(), 4u);
  events = trace.events();
  EXPECT_EQ(events[2].kind, obs::TraceKind::kMergePoint);
  EXPECT_EQ(events[3].time, 50);
  EXPECT_EQ(events[3].runs, 1u);
  EXPECT_EQ(events[0].runs, 3u) << "the closed entry is unchanged";
}

TEST(TraceTest, SkipRunDoesNotFoldIntoAnOverwrittenEntry) {
  obs::Trace trace(2);
  trace.record(1, obs::TraceKind::kSkipRun, 1, 1, 0, 1);
  trace.record(2, obs::TraceKind::kSkipRun, 1, 2, 0, 1);
  trace.record(3, obs::TraceKind::kSkipRun, 1, 3, 0, 1);  // overwrites stream 1's entry
  trace.record(4, obs::TraceKind::kSkipRun, 1, 1, 1, 1);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stream, 3u);
  EXPECT_EQ(events[1].stream, 1u);
  EXPECT_EQ(events[1].time, 4);
  EXPECT_EQ(events[1].runs, 1u);
  EXPECT_EQ(trace.dropped(), 2u);
}

TEST(TraceTest, ToStringNamesTheKind) {
  obs::Trace trace(4);
  trace.record(kSecond, obs::TraceKind::kMergePoint, 3, 2, 99, 0, "aligned");
  const std::string line = trace.events()[0].to_string();
  EXPECT_NE(line.find("merge-point"), std::string::npos);
  EXPECT_NE(line.find("aligned"), std::string::npos);
}

// --- simulation wiring ---------------------------------------------------

TEST(SimulationObsTest, ProcessesShareTheSimulationRegistry) {
  sim::Simulation sim;
  sim::Network net(&sim);
  // Process is abstract only via on_message; use a trivial subclass.
  class Sink : public sim::Process {
   public:
    using sim::Process::Process;
    void on_message(net::NodeId, const net::MessagePtr&) override {}
  };
  Sink p(&sim, &net, 1, "sink1");
  EXPECT_EQ(&p.metrics(), &sim.metrics());
  EXPECT_NE(sim.metrics().find_counter("cpu.busy{node=sink1}"), nullptr);
  EXPECT_NE(sim.metrics().find_gauge("inbox.depth{node=sink1}"), nullptr);
}

// --- logging integration -------------------------------------------------

TEST(LoggingTest, ParseLevelAcceptsAllNames) {
  using log::Level;
  const std::pair<const char*, Level> cases[] = {
      {"trace", Level::kTrace}, {"debug", Level::kDebug}, {"info", Level::kInfo},
      {"warn", Level::kWarn},   {"warning", Level::kWarn}, {"error", Level::kError},
      {"off", Level::kOff}};
  for (const auto& [name, expected] : cases) {
    Level out = Level::kOff;
    EXPECT_TRUE(log::parse_level(name, &out)) << name;
    EXPECT_EQ(out, expected) << name;
  }
  Level out = Level::kError;
  EXPECT_FALSE(log::parse_level("bogus", &out));
  EXPECT_EQ(out, Level::kError) << "unknown input must leave *out untouched";
  EXPECT_FALSE(log::parse_level("", &out));
}

TEST(LoggingTest, TraceSinkReceivesTraceLines) {
  const log::Level saved = log::level();
  log::set_level(log::Level::kTrace);
  std::vector<std::string> captured;
  log::set_trace_sink([&captured](const std::string& msg) { captured.push_back(msg); });
  EPX_TRACE << "hello " << 42;
  EPX_DEBUG << "not routed";  // only kTrace goes to the sink
  log::set_trace_sink(nullptr);
  log::set_level(saved);
  // When EPX_LOG pins a level above trace the line is filtered before the
  // sink; only assert content when something was captured.
  if (log::level() <= log::Level::kTrace || !captured.empty()) {
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "hello 42");
  }
}

TEST(SimulationObsTest, SimulationRoutesTraceLogsIntoRing) {
  const log::Level saved = log::level();
  log::set_level(log::Level::kTrace);
  {
    sim::Simulation sim;
    sim.schedule_at(3 * kSecond, [] { EPX_TRACE << "mid-run marker"; });
    sim.run_until(4 * kSecond);
    const auto logs = sim.trace().events(obs::TraceKind::kLog);
    if (log::level() <= log::Level::kTrace) {
      ASSERT_EQ(logs.size(), 1u);
      EXPECT_EQ(logs[0].time, 3 * kSecond);
      EXPECT_EQ(std::string(logs[0].detail), "mid-run marker");
    }
  }
  // Destroying the simulation must uninstall the sink: this line goes to
  // stderr (or nowhere), not into freed trace memory.
  EPX_TRACE << "after simulation death";
  log::set_level(saved);
}

// --- telemetry: ScrapeSet ------------------------------------------------

TEST(ScrapeSetTest, CounterWindowsAreDeltasPlusTotals) {
  obs::Counter counter;
  counter.add(1 * kSecond, 10);
  obs::ScrapeSet set;
  // The watch baselines at the current total: pre-watch history is not
  // replayed into the first window.
  set.watch_counter("x{node=n1}", &counter);
  counter.add(2 * kSecond, 5);
  auto points = set.scrape();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].kind, obs::PointKind::kCounter);
  EXPECT_DOUBLE_EQ(points[0].v0, 5.0);   // window delta
  EXPECT_DOUBLE_EQ(points[0].v1, 15.0);  // cumulative
  // An idle window scrapes a zero delta, and the baseline advances.
  points = set.scrape();
  EXPECT_DOUBLE_EQ(points[0].v0, 0.0);
  EXPECT_DOUBLE_EQ(points[0].v1, 15.0);
}

TEST(ScrapeSetTest, WatchIsIdempotentByKey) {
  obs::Counter counter;
  obs::ScrapeSet set;
  set.watch_counter("x{node=n1}", &counter);
  counter.add(1 * kSecond, 7);
  // A role restart re-registers the same key; the existing baseline (and
  // its pending delta) must survive, not reset.
  set.watch_counter("x{node=n1}", &counter);
  EXPECT_EQ(set.size(), 1u);
  const auto points = set.scrape();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].v0, 7.0);
}

TEST(ScrapeSetTest, RebaseSwallowsTheOutage) {
  obs::Counter counter;
  obs::ScrapeSet set;
  set.watch_counter("x{node=n1}", &counter);
  counter.add(1 * kSecond, 100);  // "before the crash"
  // The restart path rebases instead of scraping: the first post-restart
  // window must not fold the whole outage into one giant delta.
  set.rebase();
  counter.add(2 * kSecond, 3);
  const auto points = set.scrape();
  EXPECT_DOUBLE_EQ(points[0].v0, 3.0);
  EXPECT_DOUBLE_EQ(points[0].v1, 103.0);
}

TEST(ScrapeSetTest, TimerWindowsCarryWindowedQuantiles) {
  obs::Timer timer;
  timer.record(1 * kSecond, 1 * kMillisecond);
  obs::ScrapeSet set;
  set.watch_timer("lat{node=n1}", &timer);
  // Only the post-baseline recordings shape this window's quantiles.
  for (int i = 0; i < 100; ++i) timer.record(2 * kSecond, 10 * kMillisecond);
  auto points = set.scrape();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].kind, obs::PointKind::kTimer);
  EXPECT_DOUBLE_EQ(points[0].v0, 100.0);
  EXPECT_GT(points[0].v1, static_cast<double>(5 * kMillisecond));  // p50
  EXPECT_GE(points[0].v2, points[0].v1);                           // p95
  EXPECT_GE(points[0].v3, points[0].v2);                           // p99
  // An empty window has no quantiles at all.
  points = set.scrape();
  EXPECT_DOUBLE_EQ(points[0].v0, 0.0);
  EXPECT_DOUBLE_EQ(points[0].v3, 0.0);
}

TEST(ScrapeSetTest, GaugeScrapesValueAndHighWaterMark) {
  obs::Gauge gauge;
  gauge.set(8);
  gauge.set(3);
  obs::ScrapeSet set;
  set.watch_gauge("depth{node=n1}", &gauge);
  const auto points = set.scrape();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].kind, obs::PointKind::kGauge);
  EXPECT_DOUBLE_EQ(points[0].v0, 3.0);  // value at scrape
  EXPECT_DOUBLE_EQ(points[0].v1, 8.0);  // high-water mark
}

// --- telemetry: TimeSeriesStore ------------------------------------------

obs::TelemetrySample one_point_sample(uint32_t node, uint64_t seq, Tick end,
                                      std::string key, obs::PointKind kind,
                                      double v0, double v1 = 0) {
  obs::TelemetrySample sample;
  sample.node = node;
  sample.seq = seq;
  sample.window_start = end - 100 * kMillisecond;
  sample.window_end = end;
  obs::TelemetryPoint p;
  p.key = obs::intern_key(std::move(key));
  p.kind = kind;
  p.v0 = v0;
  p.v1 = v1;
  sample.points.push_back(std::move(p));
  return sample;
}

TEST(TimeSeriesStoreTest, IngestBuildsPerNodeSeries) {
  obs::TimeSeriesStore store;
  store.ingest(one_point_sample(1, 1, 1 * kSecond, "x{node=a}",
                                obs::PointKind::kCounter, 5, 5));
  store.ingest(one_point_sample(2, 1, 1 * kSecond, "x{node=b}",
                                obs::PointKind::kCounter, 7, 7));
  store.ingest(one_point_sample(1, 2, 2 * kSecond, "x{node=a}",
                                obs::PointKind::kCounter, 3, 8));
  EXPECT_EQ(store.samples_ingested(), 3u);
  EXPECT_EQ(store.points_ingested(), 3u);
  EXPECT_EQ(store.nodes(), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(store.keys(), (std::vector<std::string>{"x{node=a}", "x{node=b}"}));
  const obs::TsSeries* s = store.series(1, "x{node=a}");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->points.size(), 2u);
  EXPECT_EQ(s->points[1].t, 2 * kSecond);
  EXPECT_DOUBLE_EQ(s->points[1].v1, 8.0);
  EXPECT_EQ(store.series(2, "x{node=a}"), nullptr);
}

TEST(TimeSeriesStoreTest, QueryRangeLatestAndAggregate) {
  obs::TimeSeriesStore store;
  for (int i = 1; i <= 4; ++i) {
    store.ingest(one_point_sample(1, i, i * kSecond, "x{node=a}",
                                  obs::PointKind::kCounter, 1, i));
    store.ingest(one_point_sample(2, i, i * kSecond, "x{node=b}",
                                  obs::PointKind::kCounter, 2, 2 * i));
  }
  // range() is per-key; [2s, 3s] spans two windows of node a's series.
  const auto pts = store.range("x{node=a}", 2 * kSecond, 3 * kSecond);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].t, 2 * kSecond);
  EXPECT_EQ(pts[1].t, 3 * kSecond);
  obs::TsPoint latest;
  ASSERT_TRUE(store.latest("x{node=b}", &latest));
  EXPECT_DOUBLE_EQ(latest.v1, 8.0);
  EXPECT_FALSE(store.latest("y{node=a}", &latest));
  // aggregate_latest sums slot 1 of the freshest point across all nodes
  // whose key starts with the prefix: 4 + 8.
  EXPECT_DOUBLE_EQ(store.aggregate_latest("x", 1), 12.0);
  EXPECT_DOUBLE_EQ(store.aggregate_latest("z", 1), 0.0);
}

TEST(TimeSeriesStoreTest, DownsamplePairMergesOldestHalfLosslesslyForCounters) {
  obs::TimeSeriesStore store;
  store.set_retention(8);
  double total = 0;
  for (int i = 1; i <= 32; ++i) {
    total += i;
    store.ingest(one_point_sample(1, i, i * kSecond, "x{node=a}",
                                  obs::PointKind::kCounter, i, total));
  }
  const obs::TsSeries* s = store.series(1, "x{node=a}");
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->downsample_runs, 0u);
  EXPECT_LT(s->points.size(), 32u);
  // Counter deltas are merged by addition, so the sum over the stored
  // points still equals the true total, and the cumulative slot of the
  // last point is untouched.
  double stored = 0;
  for (const auto& p : s->points) stored += p.v0;
  EXPECT_DOUBLE_EQ(stored, total);
  EXPECT_DOUBLE_EQ(s->points.back().v1, total);
  // Timestamps stay ascending through every merge.
  for (size_t i = 1; i < s->points.size(); ++i) {
    EXPECT_GT(s->points[i].t, s->points[i - 1].t);
  }
}

// --- telemetry: SloEngine ------------------------------------------------

TEST(SloEngineTest, FiresAfterConsecutiveWindowsOncePerEpisode) {
  obs::SloEngine engine;
  engine.add_rule(obs::SloRule::gauge_max("depth", "inbox.depth", 10.0, 2));
  int fired = 0;
  engine.set_handler([&](const obs::SloViolation&) { ++fired; });

  auto breach = [&](uint64_t seq, Tick end, double hwm) {
    engine.evaluate(one_point_sample(1, seq, end, "inbox.depth{node=a}",
                                     obs::PointKind::kGauge, hwm, hwm));
  };
  breach(1, 1 * kSecond, 50);  // one breaching window: below the streak
  EXPECT_EQ(fired, 0);
  breach(2, 2 * kSecond, 50);  // second consecutive: fires
  EXPECT_EQ(fired, 1);
  breach(3, 3 * kSecond, 50);  // still breaching: same episode, silent
  EXPECT_EQ(fired, 1);
  breach(4, 4 * kSecond, 2);  // recovery resets the streak
  breach(5, 5 * kSecond, 50);
  EXPECT_EQ(fired, 1);
  breach(6, 6 * kSecond, 50);  // new episode fires again
  EXPECT_EQ(fired, 2);

  ASSERT_EQ(engine.violations().size(), 2u);
  EXPECT_EQ(engine.violations()[0].rule, "depth");
  EXPECT_EQ(engine.violations()[0].time, 2 * kSecond);
  EXPECT_EQ(engine.violations()[0].key, "inbox.depth{node=a}");
  EXPECT_DOUBLE_EQ(engine.violations()[0].value, 50.0);
}

TEST(SloEngineTest, BareMetricNameMatchesEveryLabelSet) {
  obs::SloEngine engine;
  engine.add_rule(obs::SloRule::gauge_max("depth", "inbox.depth", 10.0));
  engine.evaluate(one_point_sample(1, 1, 1 * kSecond, "inbox.depth{node=a}",
                                   obs::PointKind::kGauge, 50, 50));
  engine.evaluate(one_point_sample(2, 1, 1 * kSecond, "inbox.depth{node=b}",
                                   obs::PointKind::kGauge, 50, 50));
  // A different metric sharing the prefix must NOT match the bare name.
  engine.evaluate(one_point_sample(3, 1, 1 * kSecond, "inbox.depth_peak{node=c}",
                                   obs::PointKind::kGauge, 50, 50));
  ASSERT_EQ(engine.violations().size(), 2u);
  EXPECT_EQ(engine.violations()[0].node, 1u);
  EXPECT_EQ(engine.violations()[1].node, 2u);
}

TEST(SloEngineTest, CounterRateRuleDividesByWindowLength) {
  obs::SloEngine engine;
  // 100/s limit over a 100 ms window: a delta of 20 is 200/s -> breach;
  // a delta of 5 is 50/s -> fine.
  engine.add_rule(obs::SloRule::counter_rate("rate", "tx", 100.0));
  engine.evaluate(one_point_sample(1, 1, 1 * kSecond, "tx{node=a}",
                                   obs::PointKind::kCounter, 5, 5));
  EXPECT_TRUE(engine.violations().empty());
  engine.evaluate(one_point_sample(1, 2, 2 * kSecond, "tx{node=a}",
                                   obs::PointKind::kCounter, 20, 25));
  ASSERT_EQ(engine.violations().size(), 1u);
  EXPECT_DOUBLE_EQ(engine.violations()[0].value, 200.0);
}

}  // namespace
}  // namespace epx
