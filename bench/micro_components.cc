// Micro benchmarks (host-hardware throughput of the library's hot
// components): wire codec, histogram, stream queue, deterministic merge,
// partitioner, RNG, event engine, and whole-cluster simulation rate.
//
// `--json[=path]` additionally writes machine-readable results to
// BENCH_micro.json (benchmark name -> ns/op and, where meaningful,
// events/sec) for EXPERIMENTS.md and regression tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "elastic/elastic_merger.h"
#include "harness/cluster.h"
#include "harness/load_client.h"
#include "kvstore/kv_client.h"
#include "kvstore/kv_store.h"
#include "kvstore/partition_map.h"
#include "multicast/messages.h"
#include "multicast/stream_queue.h"
#include "net/message.h"
#include "paxos/acceptor_store.h"
#include "paxos/messages.h"
#include "paxos/slot_log.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/id_window.h"
#include "util/logging.h"
#include "util/rng.h"

namespace epx {
namespace {

void BM_CommandEncode(benchmark::State& state) {
  paxos::Command cmd;
  cmd.id = 42;
  cmd.client = 7;
  cmd.payload = std::make_shared<const std::string>(std::string(state.range(0), 'x'));
  for (auto _ : state) {
    net::Writer w;
    net::encode_fields(cmd, w);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(net::encoded_size(cmd)));
}
BENCHMARK(BM_CommandEncode)->Arg(64)->Arg(1024)->Arg(32 * 1024);

void BM_AcceptRoundTrip(benchmark::State& state) {
  paxos::register_paxos_messages();
  paxos::AcceptMsg msg;
  msg.stream = 3;
  msg.ballot = {1, 9};
  msg.instance = 77;
  paxos::Proposal batch;
  for (int i = 0; i < 8; ++i) {
    paxos::Command c;
    c.id = static_cast<uint64_t>(i);
    c.payload = std::make_shared<const std::string>(std::string(1024, 'v'));
    batch.commands.push_back(std::move(c));
  }
  msg.value = paxos::make_proposal(std::move(batch));
  auto& codec = net::MessageCodec::instance();
  for (auto _ : state) {
    auto bytes = codec.encode(msg);
    auto decoded = codec.decode({reinterpret_cast<const char*>(bytes.data()), bytes.size()});
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_AcceptRoundTrip);

/// Acceptor-log steady state: a pipeline window of live instances slides
/// forward — insert at the head, probe a recent instance, trim the tail.
/// Templated over the container so the std::map baseline runs the exact
/// same workload as SlotLog.
struct BenchLogEntry {
  uint64_t ballot = 0;
  paxos::ProposalPtr value;
  bool decided = false;
};

constexpr paxos::InstanceId kLogWindow = 128;

void BM_SlotLog(benchmark::State& state) {
  paxos::SlotLog<BenchLogEntry> log;
  paxos::InstanceId next = 0;
  for (auto _ : state) {
    BenchLogEntry& e = log[next];
    e.ballot = next;
    e.decided = true;
    benchmark::DoNotOptimize(log.find(next - (next % (kLogWindow / 2))));
    ++next;
    if (next > kLogWindow) log.trim_below(next - kLogWindow);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlotLog);

void BM_SlotLogStdMapBaseline(benchmark::State& state) {
  std::map<paxos::InstanceId, BenchLogEntry> log;
  paxos::InstanceId next = 0;
  for (auto _ : state) {
    BenchLogEntry& e = log[next];
    e.ballot = next;
    e.decided = true;
    benchmark::DoNotOptimize(log.find(next - (next % (kLogWindow / 2))));
    ++next;
    if (next > kLogWindow) {
      const paxos::InstanceId floor = next - kLogWindow;
      while (!log.empty() && log.begin()->first < floor) log.erase(log.begin());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlotLogStdMapBaseline);

/// Replica delivery dedup: four clients' interleaved ascending command
/// ids, ~1% of them re-sends of a recently delivered id, into a 2^17
/// window (the replica's). BM_IdWindowStdSetBaseline runs the same ids
/// through the std::set + std::deque pair that IdWindow replaced. The
/// window is filled before timing, so every new id also evicts one.
constexpr size_t kDedupWindow = size_t{1} << 17;

const std::vector<uint64_t>& replica_delivery_ids() {
  static const std::vector<uint64_t> ids = [] {
    Rng rng(17);
    std::vector<uint64_t> out;
    uint32_t seq[4] = {};
    const size_t n = size_t{1} << 20;
    out.reserve(n);
    while (out.size() < n) {
      if (!out.empty() && rng.chance(0.01)) {
        out.push_back(out[out.size() - 1 - rng.uniform(std::min<size_t>(out.size(), 4096))]);
      } else {
        const auto node = static_cast<net::NodeId>(rng.uniform(4));
        out.push_back(paxos::make_command_id(node + 10, ++seq[node]));
      }
    }
    return out;
  }();
  return ids;
}

template <typename Window>
void run_dedup_window(benchmark::State& state, Window& window) {
  const std::vector<uint64_t>& ids = replica_delivery_ids();
  size_t next = 0;
  while (next < kDedupWindow) window.insert(ids[next++]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.insert(ids[next]));
    if (++next == ids.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_IdWindow(benchmark::State& state) {
  IdWindow window(kDedupWindow);
  run_dedup_window(state, window);
}
BENCHMARK(BM_IdWindow);

void BM_IdWindowStdSetBaseline(benchmark::State& state) {
  struct SetDequeWindow {
    std::set<uint64_t> ids;
    std::deque<uint64_t> order;
    bool insert(uint64_t id) {
      if (!ids.insert(id).second) return false;
      order.push_back(id);
      if (order.size() > kDedupWindow) {
        ids.erase(order.front());
        order.pop_front();
      }
      return true;
    }
  } window;
  run_dedup_window(state, window);
}
BENCHMARK(BM_IdWindowStdSetBaseline);

/// Decision fan-out from the quorum-completing acceptor: one DecisionMsg
/// per learner, all sharing the stored proposal (a refcount bump each
/// instead of an 8-command batch copy). Items = messages built.
void BM_DecisionFanout(benchmark::State& state) {
  const int learners = static_cast<int>(state.range(0));
  paxos::Proposal p;
  for (int i = 0; i < 8; ++i) {
    paxos::Command c;
    c.id = static_cast<uint64_t>(i);
    c.payload = std::make_shared<const std::string>(std::string(1024, 'v'));
    p.commands.push_back(std::move(c));
  }
  const paxos::ProposalPtr value = paxos::make_proposal(std::move(p));
  for (auto _ : state) {
    for (int l = 0; l < learners; ++l) {
      auto msg = net::make_message<paxos::DecisionMsg>(3, 77, value);
      benchmark::DoNotOptimize(msg);
    }
  }
  state.SetItemsProcessed(state.iterations() * learners);
}
BENCHMARK(BM_DecisionFanout)->Arg(4)->Arg(16);

/// Write-ahead journal appends under a group-commit window sweep (arg =
/// window in microseconds; 0 = fsync per record). Bursts of 64 accept
/// records arrive at one tick, then the device drains — the acceptor's
/// steady state under a loaded ring. ns/op is the host cost of one
/// journaled record including its share of flush bookkeeping and
/// durability callbacks; appends_per_fsync shows the batching the
/// window buys.
void BM_AcceptorWalAppend(benchmark::State& state) {
  log::set_level(log::Level::kOff);
  harness::Cluster cluster;
  struct Host : sim::Process {
    using Process::Process;
    void on_message(net::NodeId, const net::MessagePtr&) override {}
  };
  auto* host = cluster.spawn<Host>("wal_host");
  sim::DeviceParams dev;
  dev.commit_window = static_cast<Tick>(state.range(0)) * kMicrosecond;
  paxos::WalAcceptorStore store(host, dev, host->name());

  paxos::Proposal p;
  paxos::Command c;
  c.id = 1;
  c.payload = std::make_shared<const std::string>(std::string(1024, 'v'));
  p.commands.push_back(std::move(c));
  const paxos::ProposalPtr value = paxos::make_proposal(std::move(p));

  paxos::InstanceId instance = 0;
  for (auto _ : state) {
    store.append_accept(instance, {1, 1}, value, true);
    if ((++instance & 63) == 0) cluster.run_for(kMillisecond);
  }
  cluster.run_for(kSecond);  // drain the tail so every record completes
  state.SetItemsProcessed(static_cast<int64_t>(instance));
  const uint64_t fsyncs = store.device().fsyncs();
  state.counters["appends_per_fsync"] = benchmark::Counter(
      fsyncs == 0 ? 0.0
                  : static_cast<double>(instance) / static_cast<double>(fsyncs));
}
BENCHMARK(BM_AcceptorWalAppend)->Arg(0)->Arg(100)->Arg(1000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.record(static_cast<Tick>(rng.uniform(10 * kSecond)));
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) h.record(static_cast<Tick>(rng.uniform(kSecond)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.p95());
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_StreamQueuePushConsume(benchmark::State& state) {
  multicast::StreamQueue q(1);
  paxos::SlotIndex slot = 0;
  paxos::Command cmd;
  cmd.payload_size = 64;
  for (auto _ : state) {
    paxos::Proposal p;
    p.first_slot = slot;
    p.commands.push_back(cmd);
    slot += 1;
    q.push_proposal(std::move(p));  // freeze once, share — the learner path
    q.consume();
  }
}
BENCHMARK(BM_StreamQueuePushConsume);

void BM_MergerPump(benchmark::State& state) {
  const int num_streams = static_cast<int>(state.range(0));
  uint64_t delivered = 0;
  elastic::ElasticMerger merger(
      1, {[](paxos::StreamId) {}, [](paxos::StreamId) {},
          [&](const paxos::Command&, paxos::StreamId) { ++delivered; },
          [](const paxos::Command&) {}});
  std::vector<paxos::StreamId> streams;
  for (int s = 1; s <= num_streams; ++s) streams.push_back(static_cast<uint32_t>(s));
  merger.bootstrap(streams);
  std::vector<paxos::SlotIndex> pos(static_cast<size_t>(num_streams), 0);
  paxos::Command cmd;
  cmd.payload_size = 64;
  uint64_t id = 0;
  for (auto _ : state) {
    for (int s = 0; s < num_streams; ++s) {
      paxos::Proposal p;
      p.first_slot = pos[static_cast<size_t>(s)]++;
      cmd.id = ++id;
      p.commands.push_back(cmd);
      merger.queue(streams[static_cast<size_t>(s)]).push_proposal(std::move(p));
    }
    merger.pump();
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}
BENCHMARK(BM_MergerPump)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_KeyHash(benchmark::State& state) {
  std::string key = "key0000012345";
  for (auto _ : state) {
    key[12] = static_cast<char>('0' + (state.iterations() % 10));
    benchmark::DoNotOptimize(key_hash(key));
  }
}
BENCHMARK(BM_KeyHash);

/// The replica's KV apply path in kv-split's shape: a store of 100 000
/// keys named `key%010zu`, 1 KB values that live in payloads the store
/// only references, and a uniform random key stream. The key hashes are
/// computed outside the timed loop, as the replica computes each one for
/// its ownership check before it applies the op. BM_KvStorePut overwrites
/// existing keys (the steady state) and BM_KvStoreGet reads them. The
/// StdUnorderedMapBaseline twins run the same ops through the index the
/// store had before: an unordered_map from key view to ordered-map node,
/// which hashes the key again with std::hash.
constexpr size_t kKvKeys = 100000;

struct KvBenchInput {
  std::vector<std::string> keys;
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> stream;  ///< key indexes of the timed ops
  std::vector<kv::KvStore::Payload> payloads;
};

const KvBenchInput& kv_bench_input() {
  static const KvBenchInput input = [] {
    KvBenchInput in;
    for (size_t k = 0; k < kKvKeys; ++k) {
      in.keys.push_back(kv::KvClient::key_name(k));
      in.hashes.push_back(key_hash(in.keys.back()));
    }
    Rng rng(23);
    in.stream.resize(size_t{1} << 20);
    for (uint32_t& k : in.stream) k = static_cast<uint32_t>(rng.uniform(kKvKeys));
    for (int i = 0; i < 64; ++i) {
      in.payloads.push_back(std::make_shared<const std::string>(std::string(1040, 'v')));
    }
    return in;
  }();
  return input;
}

/// The store's index before the flat table, for the baseline twins.
struct StdUnorderedMapKvStore {
  using Ordered = std::map<std::string, kv::KvStore::Value, std::less<>>;
  Ordered ordered;
  std::unordered_map<std::string_view, Ordered::iterator> index;

  void put(std::string_view key, uint64_t /*hash*/, std::string_view value,
           kv::KvStore::Payload owner) {
    const auto hit = index.find(key);
    if (hit != index.end()) {
      hit->second->second = kv::KvStore::Value{std::move(owner), value};
      return;
    }
    kv::KvStore::Value entry{std::move(owner), value};
    const auto it = ordered.emplace(std::string(key), std::move(entry)).first;
    index.emplace(it->first, it);
  }
  std::optional<std::string_view> get(std::string_view key, uint64_t /*hash*/) const {
    const auto hit = index.find(key);
    if (hit == index.end()) return std::nullopt;
    return hit->second->second.bytes;
  }
};

template <typename Store>
void fill_kv_store(Store& store, const KvBenchInput& in) {
  for (size_t k = 0; k < kKvKeys; ++k) {
    const kv::KvStore::Payload& p = in.payloads[k % in.payloads.size()];
    store.put(in.keys[k], in.hashes[k], std::string_view(*p).substr(16, 1024), p);
  }
}

template <typename Store>
void run_kv_put(benchmark::State& state, Store& store) {
  const KvBenchInput& in = kv_bench_input();
  fill_kv_store(store, in);
  size_t next = 0;
  for (auto _ : state) {
    const uint32_t k = in.stream[next];
    const kv::KvStore::Payload& p = in.payloads[next % in.payloads.size()];
    store.put(in.keys[k], in.hashes[k], std::string_view(*p).substr(16, 1024), p);
    benchmark::ClobberMemory();
    if (++next == in.stream.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

template <typename Store>
void run_kv_get(benchmark::State& state, Store& store) {
  const KvBenchInput& in = kv_bench_input();
  fill_kv_store(store, in);
  size_t next = 0;
  for (auto _ : state) {
    const uint32_t k = in.stream[next];
    benchmark::DoNotOptimize(store.get(in.keys[k], in.hashes[k]));
    if (++next == in.stream.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_KvStorePut(benchmark::State& state) {
  kv::KvStore store;
  run_kv_put(state, store);
}
BENCHMARK(BM_KvStorePut);

void BM_KvStorePutStdUnorderedMapBaseline(benchmark::State& state) {
  StdUnorderedMapKvStore store;
  run_kv_put(state, store);
}
BENCHMARK(BM_KvStorePutStdUnorderedMapBaseline);

void BM_KvStoreGet(benchmark::State& state) {
  kv::KvStore store;
  run_kv_get(state, store);
}
BENCHMARK(BM_KvStoreGet);

void BM_KvStoreGetStdUnorderedMapBaseline(benchmark::State& state) {
  StdUnorderedMapKvStore store;
  run_kv_get(state, store);
}
BENCHMARK(BM_KvStoreGetStdUnorderedMapBaseline);

/// A getrange reply in the replica's shape: a 50-key range of 1 KB
/// values from a store filled as above, wrapped in a ReplyMsg and sized
/// once, as Network::send does. BM_KvGetRangeReply collects the range as
/// a net::SharedBody that references each value's payload.
/// BM_KvGetRangeReplyCopyBaseline first writes the same bytes into one
/// fresh string over the same ordered index, as the store's
/// encode_range() did before replies shared their bytes.
constexpr size_t kRangeSpan = 50;

struct CopyingRangeStore {
  kv::KvStore::Ordered ordered;

  void put(std::string_view key, uint64_t hash, std::string_view value,
           kv::KvStore::Payload owner) {
    ordered.insert_or_assign(std::string(key),
                             kv::KvStore::Value{std::move(owner), value, hash});
  }
  /// Two passes over the range: size it, then write it into one buffer.
  net::SharedBody range(std::string_view lo, std::string_view hi) const {
    const auto first = ordered.lower_bound(lo);
    auto last = first;
    size_t n = 0;
    size_t bytes = 0;
    for (; last != ordered.end() && last->first < hi; ++last) {
      ++n;
      bytes += net::Writer::bytes_size(last->first.size()) +
               net::Writer::bytes_size(last->second.bytes.size());
    }
    std::string out;
    out.reserve(net::Writer::varint_size(n) + bytes);
    net::StringWriter w(out);
    w.varint(n);
    for (auto it = first; it != last; ++it) {
      w.bytes(it->first);
      w.bytes(it->second.bytes);
    }
    return net::SharedBody(std::make_shared<const std::string>(std::move(out)));
  }
};

template <typename Store>
void run_getrange_reply(benchmark::State& state, Store& store) {
  const KvBenchInput& in = kv_bench_input();
  fill_kv_store(store, in);
  size_t next = 0;
  for (auto _ : state) {
    const uint32_t k = std::min<uint32_t>(in.stream[next], kKvKeys - kRangeSpan - 1);
    auto reply = net::make_mutable_message<multicast::ReplyMsg>(next, 0);
    reply->payload = store.range(in.keys[k], in.keys[k + kRangeSpan]);
    benchmark::DoNotOptimize(reply->body_size());
    if (++next == in.stream.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_KvGetRangeReply(benchmark::State& state) {
  kv::KvStore store;
  run_getrange_reply(state, store);
}
BENCHMARK(BM_KvGetRangeReply);

void BM_KvGetRangeReplyCopyBaseline(benchmark::State& state) {
  CopyingRangeStore store;
  run_getrange_reply(state, store);
}
BENCHMARK(BM_KvGetRangeReplyCopyBaseline);

void BM_PartitionLookup(benchmark::State& state) {
  std::vector<kv::PartitionEntry> entries;
  const int n = static_cast<int>(state.range(0));
  const uint64_t span = ~0ULL / static_cast<uint64_t>(n);
  for (int i = 0; i < n; ++i) {
    kv::PartitionEntry e;
    e.partition_id = static_cast<uint32_t>(i + 1);
    e.hash_lo = static_cast<uint64_t>(i) * span + (i == 0 ? 0 : 1);
    e.hash_hi = (i + 1 == n) ? ~0ULL : static_cast<uint64_t>(i + 1) * span;
    e.stream = static_cast<uint32_t>(i + 1);
    entries.push_back(e);
  }
  kv::PartitionMap map(entries);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.lookup_hash(rng.next()));
  }
}
BENCHMARK(BM_PartitionLookup)->Arg(2)->Arg(16)->Arg(64);

void BM_Rng(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Rng);

void BM_EventQueue(benchmark::State& state) {
  sim::Simulation sim;
  int sink = 0;
  for (auto _ : state) {
    sim.schedule_after(1, [&sink] { ++sink; });
    sim.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueue);

/// The pre-overhaul engine, kept here as the reference point for the
/// mixed-horizon comparison: one heap-allocated std::function per event,
/// ordered by a binary heap over (time, insertion seq).
class LegacyEventQueue {
 public:
  template <typename F>
  void schedule(Tick t, F&& fn) {
    heap_.push(Ev{t, seq_++, std::function<void()>(std::forward<F>(fn))});
  }
  bool empty() const { return heap_.empty(); }
  Tick next_time() const { return heap_.top().time; }
  void pop_and_run() {
    std::function<void()> fn = std::move(const_cast<Ev&>(heap_.top()).fn);
    heap_.pop();
    fn();
  }

 private:
  struct Ev {
    Tick time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Ev& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap_;
  uint64_t seq_ = 0;
};

/// Mixed-horizon steady-state load matching what a running cluster
/// produces: mostly short timers (RPC hops, queue drains), some in the
/// tens-of-microseconds-to-milliseconds band (batching, retries), a tail
/// of far-future timers (load ramps, failure detection). The queue holds
/// a standing population of 1024 events; every fired event schedules a
/// successor at a fresh mixed horizon, so each iteration is one full
/// schedule+fire cycle through the engine. The callback captures 32
/// bytes — the size of Network::send's delivery lambda, the simulator's
/// dominant event — which exceeds libstdc++'s std::function inline
/// buffer, exactly as in the real send path.
template <typename Engine>
void mixed_horizon_events(benchmark::State& state) {
  Engine q;
  Rng rng(42);
  Tick now = 0;
  uint64_t fired = 0;
  const auto horizon = [&rng]() -> Tick {
    const uint64_t bucket = rng.uniform(100);
    if (bucket < 60) return static_cast<Tick>(rng.uniform(4096));
    if (bucket < 90) return static_cast<Tick>(rng.uniform(30 * kMillisecond));
    return static_cast<Tick>(rng.uniform(5 * kSecond));
  };
  uint64_t a = 1, b = 2, c = 3;  // pads the capture to delivery-lambda size
  const auto schedule_one = [&] {
    q.schedule(now + horizon(), [&fired, a, b, c] { fired += a + b + c; });
  };
  constexpr int kPopulation = 1024;
  for (int i = 0; i < kPopulation; ++i) schedule_one();
  for (auto _ : state) {
    now = q.next_time();
    q.pop_and_run();
    schedule_one();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_EventEngineMixedHorizon(benchmark::State& state) {
  mixed_horizon_events<sim::EventQueue>(state);
}
BENCHMARK(BM_EventEngineMixedHorizon);

void BM_EventEngineMixedHorizonLegacy(benchmark::State& state) {
  mixed_horizon_events<LegacyEventQueue>(state);
}
BENCHMARK(BM_EventEngineMixedHorizonLegacy);

/// Timer-wheel stress: every event lands in the wheel window or beyond
/// it, so draining exercises slot scans, bitmap skips and far-heap
/// rebases rather than the near heap.
void BM_TimerWheelSpread(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(7);
  Tick now = 0;
  uint64_t sink = 0;
  constexpr int kBatch = 1024;
  const Tick span = static_cast<Tick>(state.range(0)) * kMillisecond;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      q.schedule(now + 1 + static_cast<Tick>(rng.uniform(static_cast<uint64_t>(span))),
                 [&sink] { ++sink; });
    }
    while (!q.empty()) {
      now = q.next_time();
      q.pop_and_run();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TimerWheelSpread)->Arg(30)->Arg(500);

/// Bulk skip-run consumption: every stream heads a skip run (the steady
/// state skip pacing creates on idle streams) followed by one value.
/// Args are (streams, skip run length); items/sec counts consumed slots.
void BM_BulkSkipMerge(benchmark::State& state) {
  const int num_streams = static_cast<int>(state.range(0));
  const uint64_t run = static_cast<uint64_t>(state.range(1));
  uint64_t delivered = 0;
  elastic::ElasticMerger merger(
      1, {[](paxos::StreamId) {}, [](paxos::StreamId) {},
          [&](const paxos::Command&, paxos::StreamId) { ++delivered; },
          [](const paxos::Command&) {}});
  std::vector<paxos::StreamId> streams;
  for (int s = 1; s <= num_streams; ++s) streams.push_back(static_cast<uint32_t>(s));
  merger.bootstrap(streams);
  paxos::SlotIndex pos = 0;
  paxos::Command cmd;
  cmd.payload_size = 64;
  uint64_t id = 0;
  for (auto _ : state) {
    for (paxos::StreamId s : streams) {
      paxos::Proposal skip;
      skip.first_slot = pos;
      skip.skip_slots = run;
      merger.queue(s).push_proposal(std::move(skip));
      paxos::Proposal value;
      value.first_slot = pos + run;
      cmd.id = ++id;
      value.commands.push_back(cmd);
      merger.queue(s).push_proposal(std::move(value));
    }
    pos += run + 1;
    merger.pump();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(num_streams) *
                          static_cast<int64_t>(run + 1));
}
BENCHMARK(BM_BulkSkipMerge)->Args({4, 256})->Args({8, 1024});

/// Whole-cluster rate: one virtual second of a loaded 1-stream cluster
/// per iteration; items = delivered commands.
void BM_SimulatedClusterSecond(benchmark::State& state) {
  log::set_level(log::Level::kOff);
  harness::Cluster cluster;
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  harness::LoadClient::Config cfg;
  cfg.threads = 8;
  cfg.payload_bytes = 1024;
  cfg.route = [s1] { return s1; };
  auto* client =
      cluster.spawn<harness::LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  uint64_t last = 0;
  for (auto _ : state) {
    cluster.run_for(kSecond);
    benchmark::DoNotOptimize(r1->delivered());
  }
  last = r1->delivered();
  state.SetItemsProcessed(static_cast<int64_t>(last));
}
BENCHMARK(BM_SimulatedClusterSecond);

/// One virtual second per iteration of BM_SimulatedClusterSecond's
/// cluster with the telemetry plane scraping every `interval`.
void run_telemetry_cluster_second(benchmark::State& state, Tick interval) {
  log::set_level(log::Level::kOff);
  harness::ClusterOptions options;
  options.telemetry.enabled = true;
  options.telemetry.interval = interval;
  harness::Cluster cluster(options);
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  harness::LoadClient::Config cfg;
  cfg.threads = 8;
  cfg.payload_bytes = 1024;
  cfg.route = [s1] { return s1; };
  auto* client =
      cluster.spawn<harness::LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  for (auto _ : state) {
    cluster.run_for(kSecond);
    benchmark::DoNotOptimize(r1->delivered());
  }
  state.SetItemsProcessed(static_cast<int64_t>(r1->delivered()));
}

/// The telemetry A/B twin of BM_SimulatedClusterSecond: identical
/// topology and load, scrape plane on at the default 100 ms interval.
/// perf-smoke gates the pair — telemetry must cost at most a few percent
/// of real time over the disabled run (compare.py --ab).
void BM_SimulatedClusterSecondTelemetry(benchmark::State& state) {
  run_telemetry_cluster_second(state, harness::ClusterOptions{}.telemetry.interval);
}
BENCHMARK(BM_SimulatedClusterSecondTelemetry);

/// The scrape-interval sweep around that default, reported as
/// BM_SimulatedClusterSecondTelemetry/interval_ms:N. Scrapes are part of
/// the simulated workload (agent CPU, NIC bytes, monitor CPU), so a
/// shorter interval costs both host time per virtual second and
/// delivered commands (items). The A/B gate's filter anchors on the bare
/// name, so these points are not gated.
void BM_SimulatedClusterSecondTelemetryInterval(benchmark::State& state) {
  run_telemetry_cluster_second(state, static_cast<Tick>(state.range(0)) * kMillisecond);
}
BENCHMARK(BM_SimulatedClusterSecondTelemetryInterval)
    ->Name("BM_SimulatedClusterSecondTelemetry")
    ->ArgName("interval_ms")
    ->Arg(10)
    ->Arg(1000);

/// Thread-scaling series: one virtual second of a loaded EIGHT-ring
/// cluster per iteration, executed on T shards. The topology is fixed
/// across T so items/sec compares directly; T:1 is the serial engine
/// (the parallel engine's differential reference), T>1 the conservative
/// windowed engine. Reported as BM_SimulatedClusterSecond/T:N.
void BM_SimulatedClusterSecondThreads(benchmark::State& state) {
  log::set_level(log::Level::kOff);
  harness::ClusterOptions options;
  options.threads = static_cast<size_t>(state.range(0));
  harness::Cluster cluster(options);
  constexpr int kStreams = 8;
  std::vector<elastic::Replica*> replicas;
  for (int i = 0; i < kStreams; ++i) {
    const auto s = cluster.add_stream();
    replicas.push_back(
        cluster.add_replica(static_cast<paxos::GroupId>(i + 1), {s}));
    harness::LoadClient::Config cfg;
    cfg.threads = 8;
    cfg.payload_bytes = 1024;
    cfg.route = [s] { return s; };
    auto* client = cluster.spawn<harness::LoadClient>(
        "client" + std::to_string(i + 1), &cluster.directory(), cfg);
    client->start();
  }
  for (auto _ : state) {
    cluster.run_for(kSecond);
  }
  uint64_t delivered = 0;
  for (auto* r : replicas) delivered += r->delivered();
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}
BENCHMARK(BM_SimulatedClusterSecondThreads)
    ->Name("BM_SimulatedClusterSecond")
    ->ArgName("T")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

/// Geo twin of the thread-scaling series: bench::geo_topology()'s four
/// WAN-separated regions on region-affine shards. Cross-shard lookahead
/// is 32-90 ms here, so the per-shard-pair matrix lets each shard batch
/// tens of virtual milliseconds per window — the workload the matrix
/// exists for. Reported as BM_SimulatedClusterSecondGeo/T:N; the name
/// substring-matches CI's perf-smoke --benchmark_filter, and the T:4
/// point is a gated key in tools/perf-smoke/compare.py.
void BM_SimulatedClusterSecondGeoThreads(benchmark::State& state) {
  log::set_level(log::Level::kOff);
  harness::ClusterOptions options;
  options.threads = static_cast<size_t>(state.range(0));
  options.topology = bench::geo_topology();
  harness::Cluster cluster(options);
  const std::vector<elastic::Replica*> replicas = bench::build_geo_cluster(cluster);
  for (auto _ : state) {
    cluster.run_for(kSecond);
  }
  uint64_t delivered = 0;
  for (auto* r : replicas) delivered += r->delivered();
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}
BENCHMARK(BM_SimulatedClusterSecondGeoThreads)
    ->Name("BM_SimulatedClusterSecondGeo")
    ->ArgName("T")
    ->Arg(1)
    ->Arg(4);

}  // namespace

/// Console reporter that additionally writes one JSON object per
/// finished benchmark to a file:
///   {"name": ..., "ns_per_op": ..., "events_per_second": ...}
/// keyed for scripts (EXPERIMENTS.md, CI regression tracking) that do
/// not want to parse Google Benchmark's full console/JSON formats.
///
/// With --benchmark_repetitions the individual repetition runs are
/// folded into one extra "<name>_min" entry per benchmark (the fastest
/// repetition) alongside the library's "<name>_median"/"<name>_mean"
/// aggregates. Minimum-over-repetitions is the statistic the A/B
/// overhead gate reads: on a shared runner the distribution of run
/// times is noise stacked on top of a stable floor, so the minima of
/// two interleaved benchmarks compare the floors and shrug off the
/// noise that medians still carry.
class JsonDumpReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonDumpReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double ns = run.iterations == 0
                            ? 0.0
                            : run.real_accumulated_time * 1e9 /
                                  static_cast<double>(run.iterations);
      if (run.run_type == Run::RT_Iteration && run.repetitions > 1) {
        // One repetition of a repeated benchmark: fold into the _min
        // entry instead of emitting a duplicate per-rep key.
        const std::string name = run.benchmark_name() + "_min";
        auto [it, fresh] = min_index_.try_emplace(name, entries_.size());
        if (fresh) {
          entries_.push_back({name, ns, 0.0});
        } else if (ns < entries_[it->second].ns_per_op) {
          entries_[it->second].ns_per_op = ns;
        }
        continue;
      }
      Entry e;
      e.name = run.benchmark_name();
      e.ns_per_op = ns;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) e.events_per_second = it->second.value;
      entries_.push_back(std::move(e));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::ofstream out(path_);
    out << "{\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << "  \"" << e.name << "\": {\"ns_per_op\": " << e.ns_per_op;
      if (e.events_per_second > 0) {
        out << ", \"events_per_second\": " << e.events_per_second;
      }
      out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "}\n";
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op = 0.0;
    double events_per_second = 0.0;
  };
  std::string path_;
  std::vector<Entry> entries_;
  std::map<std::string, size_t> min_index_;  // _min name -> entries_ slot
};

}  // namespace epx

int main(int argc, char** argv) {
  // Peel off our own --json[=path] flag before Google Benchmark sees
  // (and rejects) it.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_micro.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    epx::JsonDumpReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  return 0;
}
