#include "sim/network.h"

#include <algorithm>
#include <limits>

#include "sim/process.h"
#include "util/logging.h"
#include "util/sorted.h"

namespace epx::sim {

namespace {
uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

/// Canonical delivery order within a channel and across staged records.
struct RecordBefore {
  template <typename R>
  bool operator()(const R& a, const R& b) const {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    if (a.from != b.from) return a.from < b.from;
    return a.seq < b.seq;
  }
};
/// std::push_heap/pop_heap build max-heaps; invert to get the min-record
/// at the front.
struct RecordAfter {
  template <typename R>
  bool operator()(const R& a, const R& b) const {
    return RecordBefore{}(b, a);
  }
};
}  // namespace

Network::Network(Simulation* sim, uint64_t seed) : sim_(sim), seed_(seed) {
  messages_sent_ = &sim_->metrics().counter("net.messages_sent");
  messages_dropped_ = &sim_->metrics().counter("net.messages_dropped");
  bytes_sent_ = &sim_->metrics().counter("net.bytes_sent");
  sim_->register_parallel_client(this);
}

void Network::attach(Process* process) {
  const NodeId id = process->id();
  if (id >= endpoints_.size()) {
    const size_t old_size = sender_rng_.size();
    endpoints_.resize(id + 1, nullptr);
    ever_attached_.resize(id + 1, 0);
    egress_bytes_.resize(id + 1, nullptr);
    egress_free_at_.resize(id + 1, 0);
    sender_seq_.resize(id + 1, 0);
    sender_rng_.resize(id + 1);
    channels_.resize(id + 1);
    // Each sender gets an independent RNG stream derived from (network
    // seed, node id): its loss/jitter draws depend only on its own send
    // history, never on how other processes' sends interleave.
    for (size_t i = old_size; i < sender_rng_.size(); ++i) {
      uint64_t state = seed_ + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(i) + 1);
      sender_rng_[i].reseed(splitmix64(state));
    }
  }
  endpoints_[id] = process;
  ever_attached_[id] = 1;
  egress_bytes_[id] = &sim_->metrics().counter("net.egress_bytes", {{"node", process->name()}});
  invalidate_lookahead();
}

void Network::detach(NodeId id) {
  if (id < endpoints_.size()) endpoints_[id] = nullptr;
  // Detached ids stay in the matrix scan: their channels still accept
  // records (dropped at pump time), which schedule events on their
  // shard's queue — so their links still bound that shard's horizon.
  invalidate_lookahead();
}

void Network::set_default_link(LinkParams params) {
  default_link_ = params;
  invalidate_lookahead();
}

void Network::set_link(NodeId from, NodeId to, LinkParams params) {
  links_[link_key(from, to)] = params;
  invalidate_lookahead();
}

void Network::set_topology(const Topology* topo) {
  topology_ = topo;
  invalidate_lookahead();
}

void Network::set_node_bandwidth(NodeId id, double bits_per_second) {
  bandwidth_[id] = bits_per_second;
}

void Network::partition(const std::unordered_set<NodeId>& island) {
  island_ = island;
  partitioned_ = true;
}

void Network::heal() {
  island_.clear();
  partitioned_ = false;
}

bool Network::crosses_partition(NodeId from, NodeId to) const {
  if (!partitioned_) return false;
  return island_.count(from) != island_.count(to);
}

LinkParams Network::link_for(NodeId from, NodeId to) const {
  // Explicit per-link override, then the region topology for placed
  // pairs, then the global default.
  if (links_.empty() && topology_ == nullptr) return default_link_;
  if (!links_.empty()) {
    auto it = links_.find(link_key(from, to));
    if (it != links_.end()) return it->second;
  }
  if (topology_ != nullptr) {
    LinkParams params;
    if (topology_->link_between(from, to, &params)) return params;
  }
  return default_link_;
}

double Network::bandwidth_for(NodeId id) const {
  if (bandwidth_.empty()) return default_bw_;
  auto it = bandwidth_.find(id);
  return it != bandwidth_.end() ? it->second : default_bw_;
}

void Network::rebuild_lookahead_matrix(size_t shards) const {
  constexpr Tick kUnconstrained = std::numeric_limits<Tick>::max();
  matrix_shards_ = shards;
  lookahead_matrix_.assign(shards * shards, kUnconstrained);
  // Every id that ever attached participates, currently-detached ones
  // included (their channels still pump; see detach()). Ids that never
  // attached — gaps in the harness's allocation — are excluded: they
  // cannot send, and attaching one later is itself an epoch bump that
  // re-derives the matrix. O(N²) link_for scans, but it runs only when
  // links, the topology, or the endpoint set actually changed —
  // steady-state windows hit the cache.
  const size_t n = endpoints_.size();
  std::vector<size_t> shard_of(n);
  for (size_t id = 0; id < n; ++id) {
    shard_of[id] = sim_->shard_for(static_cast<NodeId>(id));
  }
  for (size_t from = 0; from < n; ++from) {
    if (ever_attached_[from] == 0) continue;
    const size_t row = shard_of[from] * shards;
    for (size_t to = 0; to < n; ++to) {
      if (from == to || shard_of[from] == shard_of[to]) continue;
      if (ever_attached_[to] == 0) continue;
      Tick& cell = lookahead_matrix_[row + shard_of[to]];
      cell = std::min(cell, link_for(static_cast<NodeId>(from),
                                     static_cast<NodeId>(to))
                                .latency);
    }
  }
  // Fold in explicit links whose endpoints the node scan missed (ids
  // beyond the attached range): lowering an entry is always safe, and a
  // fast explicit link must bound its shard pair even before either
  // endpoint attaches.
  for (const auto& [key, params] : util::sorted_items(links_)) {
    const auto from = static_cast<NodeId>(key >> 32);
    const auto to = static_cast<NodeId>(key & 0xffffffffu);
    if (from < n && to < n) continue;  // covered above
    const size_t sf = sim_->shard_for(from);
    const size_t st = sim_->shard_for(to);
    if (sf == st) continue;
    Tick& cell = lookahead_matrix_[sf * shards + st];
    cell = std::min(cell, params->latency);
  }
  matrix_link_epoch_ = link_epoch_;
  matrix_topo_version_ = topology_ != nullptr ? topology_->version() : 0;
  matrix_valid_ = true;
}

Tick Network::lookahead(size_t src_shard, size_t dst_shard) const {
  const size_t shards = sim_->threads();
  const uint64_t topo_version = topology_ != nullptr ? topology_->version() : 0;
  if (!matrix_valid_ || matrix_link_epoch_ != link_epoch_ ||
      matrix_topo_version_ != topo_version || matrix_shards_ != shards) {
    rebuild_lookahead_matrix(shards);
  }
  if (src_shard >= matrix_shards_ || dst_shard >= matrix_shards_) {
    return default_link_.latency;
  }
  return lookahead_matrix_[src_shard * matrix_shards_ + dst_shard];
}

void Network::begin_parallel(size_t shards) {
  staged_.resize(shards);
  staged_counts_.resize(shards);
}

// --- counters -------------------------------------------------------------

Network::CounterStage& Network::stage_for(Tick at) {
  // Bucketing uses the registry's default window (these three counters
  // are created without an override), so a flush stamped with the
  // window's start lands in exactly the bucket the original add would
  // have — per-window series and totals come out byte-identical.
  const Tick window_start = at - (at % kSecond);
  auto& stages = staged_counts_[sim_->executing_shard_index()];
  if (stages.empty() || stages.back().window_start != window_start) {
    stages.push_back(CounterStage{window_start, 0, 0, 0});
  }
  return stages.back();
}

void Network::count_sent(Tick at, uint64_t bytes) {
  if (sim_->in_shard_context()) {
    CounterStage& s = stage_for(at);
    s.sent += 1;
    s.bytes += bytes;
    return;
  }
  messages_sent_->add(at);
  bytes_sent_->add(at, bytes);
}

void Network::count_dropped(Tick at) {
  if (sim_->in_shard_context()) {
    stage_for(at).dropped += 1;
    return;
  }
  messages_dropped_->add(at);
}

// --- delivery -------------------------------------------------------------

void Network::channel_push(ChannelRecord rec) {
  const NodeId to = rec.to;
  const Tick arrival = rec.arrival;
  if (to >= channels_.size()) channels_.resize(to + 1);
  Channel& ch = channels_[to];
  ch.heap.push_back(std::move(rec));
  std::push_heap(ch.heap.begin(), ch.heap.end(), RecordAfter{});
  // One pump per (node, tick): the first pump at a tick drains every
  // ripe record for the node in canonical order, so further records
  // landing on the same arrival tick (quorum replies, client batches)
  // ride the already-scheduled event. The marker only covers the most
  // recently scheduled tick — an older pending pump at another tick
  // just schedules again, which the drain loop tolerates as a no-op.
  // The capture is 12 bytes — well inside the queue's inline storage.
  if (ch.pump_scheduled_for == arrival) return;
  ch.pump_scheduled_for = arrival;
  sim_->schedule_shard(sim_->shard_for(to), EventClass::kDelivery, arrival,
                       [this, to] { pump(to); });
}

void Network::pump(NodeId to) {
  auto& heap = channels_[to].heap;
  const Tick now = sim_->now();
  if (channels_[to].pump_scheduled_for == now) {
    channels_[to].pump_scheduled_for = kNever;
  }
  while (!heap.empty() && heap.front().arrival <= now) {
    std::pop_heap(heap.begin(), heap.end(), RecordAfter{});
    ChannelRecord rec = std::move(heap.back());
    heap.pop_back();
    Process* dest = endpoint(to);
    // Re-check the partition at delivery time so an in-flight message
    // cannot cross a partition installed after it was sent.
    if (dest == nullptr || crosses_partition(rec.from, to)) {
      count_dropped(now);
      continue;
    }
    dest->enqueue_message(rec.from, std::move(rec.msg));
  }
}

bool Network::exchange() {
  // Splice every staged cross-shard record into the channels in the
  // canonical order, so channel-heap and pump-event construction do not
  // depend on the shard partitioning. Thinned barriers — nothing staged
  // anywhere, the common case once shards advance asynchronously — skip
  // the splice and sort entirely and report false so the engine can
  // count them.
  bool did_work = false;
  auto& all = exchange_scratch_;
  for (auto& staged : staged_) {
    if (staged.empty()) continue;
    for (auto& rec : staged) all.push_back(std::move(rec));
    staged.clear();
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end(), RecordBefore{});
    for (auto& rec : all) channel_push(std::move(rec));
    all.clear();
    did_work = true;
  }
  for (auto& stages : staged_counts_) {
    if (stages.empty()) continue;
    for (const CounterStage& s : stages) {
      if (s.sent != 0) messages_sent_->add(s.window_start, s.sent);
      if (s.bytes != 0) bytes_sent_->add(s.window_start, s.bytes);
      if (s.dropped != 0) messages_dropped_->add(s.window_start, s.dropped);
    }
    stages.clear();
    did_work = true;
  }
  return did_work;
}

void Network::send(NodeId from, NodeId to, MessagePtr msg, Tick earliest) {
  const Tick now = sim_->now();
  const size_t bytes = msg->wire_size();
  count_sent(now, bytes);
  // Per-sender counter: the sender's shard owns it, add directly.
  if (from < egress_bytes_.size() && egress_bytes_[from] != nullptr) {
    egress_bytes_[from]->add(now, bytes);
  }

  Rng& rng = sender_rng_[from];
  if (crosses_partition(from, to) || rng.chance(loss_probability_)) {
    count_dropped(now);
    return;
  }

  // NIC egress: transmissions from one node serialise.
  Tick depart = std::max(earliest, now);
  const double bw = bandwidth_for(from);
  Tick tx_time = 0;
  if (bw > 0.0) {
    tx_time = static_cast<Tick>(static_cast<double>(bytes) * 8.0 / bw * kSecond);
    Tick& free_at = egress_free_at_[from];
    depart = std::max(depart, free_at);
    free_at = depart + tx_time;
  }

  const LinkParams link = link_for(from, to);
  Tick jitter = 0;
  if (link.jitter > 0) jitter = static_cast<Tick>(rng.uniform(static_cast<uint64_t>(link.jitter)));
  const Tick arrival = depart + tx_time + link.latency + jitter;
  const uint64_t seq = sender_seq_[from]++;

  if (sim_->in_shard_context()) {
    const size_t src_shard = sim_->executing_shard_index();
    // Cross-shard (or beyond the pre-sized channel vector, which only a
    // barrier-time resize may grow): stage for the next barrier. The
    // conservative window guarantees arrival >= the barrier's horizon.
    if (to >= channels_.size() || sim_->shard_for(to) != src_shard) {
      staged_[src_shard].push_back(ChannelRecord{arrival, from, seq, to, std::move(msg)});
      return;
    }
  }
  channel_push(ChannelRecord{arrival, from, seq, to, std::move(msg)});
}

}  // namespace epx::sim
