#include "paxos/acceptor_store.h"

#include <algorithm>
#include <map>
#include <utility>

#include "sim/process.h"

namespace epx::paxos {

namespace {

// Modelled on-disk footprint. A record is a small fixed header (kind,
// ballot, instance, length/crc) plus, for accepts, the encoded value.
constexpr uint64_t kRecordHeaderBytes = 24;

uint64_t record_bytes(const ProposalPtr& value) {
  return kRecordHeaderBytes + (value ? net::encoded_size(*value) : 0);
}

}  // namespace

WalAcceptorStore::WalAcceptorStore(sim::Process* host, sim::DeviceParams device,
                                   const std::string& name)
    : host_(host), device_(host, device, name) {
  const obs::Labels labels{{"node", name}};
  appends_ = &host_->metrics().counter("wal.appends", labels);
  checkpoints_ = &host_->metrics().counter("wal.checkpoints", labels);
  compactions_ = &host_->metrics().counter("wal.compactions", labels);
  bytes_gauge_ = &host_->metrics().gauge("wal.bytes", labels);
}

WalAcceptorStore::~WalAcceptorStore() { release_slab(); }

void WalAcceptorStore::push_slab(Record rec) {
  if (len_ == cap_) {
    const size_t new_cap = std::max<size_t>(16, cap_ * 2);
    Record* grown = new Record[new_cap];
    for (size_t i = 0; i < len_; ++i) grown[i] = std::move(slab_[i]);
    delete[] slab_;
    slab_ = grown;
    cap_ = new_cap;
  }
  journal_bytes_ += rec.bytes;
  slab_[len_++] = std::move(rec);
}

void WalAcceptorStore::release_slab() {
  delete[] slab_;
  slab_ = nullptr;
  cap_ = len_ = 0;
  journal_bytes_ = 0;
}

void WalAcceptorStore::append(Record rec) {
  appends_->add(host_->now());
  const uint64_t bytes = rec.bytes;
  pending_.push_back(std::move(rec));
  ++appended_total_;
  device_.append(bytes, [this] { record_durable(); });
}

void WalAcceptorStore::append_promise(const Ballot& promised) {
  Record rec;
  rec.kind = Kind::kPromise;
  rec.ballot = promised;
  rec.bytes = kRecordHeaderBytes;
  append(std::move(rec));
}

void WalAcceptorStore::append_accept(InstanceId instance, const Ballot& ballot,
                                     const ProposalPtr& value, bool decided) {
  Record rec;
  rec.kind = Kind::kAccept;
  rec.ballot = ballot;
  rec.instance = instance;
  rec.value = value;
  rec.decided = decided;
  rec.bytes = record_bytes(value);
  append(std::move(rec));
}

void WalAcceptorStore::append_checkpoint(const Ballot& promised, InstanceId trim_horizon) {
  checkpoints_->add(host_->now());
  Record rec;
  rec.kind = Kind::kCheckpoint;
  rec.ballot = promised;
  rec.trim_horizon = trim_horizon;
  rec.bytes = kRecordHeaderBytes;
  append(std::move(rec));
}

void WalAcceptorStore::sync(std::function<void()> done) {
  if (pending_.empty()) {
    done();
    return;
  }
  barriers_.push_back(Barrier{appended_total_, std::move(done)});
}

void WalAcceptorStore::record_durable() {
  // Device completions are FIFO in append order, so the record made
  // durable is always the oldest pending one.
  Record rec = std::move(pending_.front());
  pending_.pop_front();
  ++durable_total_;
  const bool was_checkpoint = rec.kind == Kind::kCheckpoint;
  push_slab(std::move(rec));
  // Compact only once the checkpoint itself is durable: until then a
  // power loss must still find the records the checkpoint supersedes.
  if (was_checkpoint) compact();
  bytes_gauge_->set(static_cast<double>(journal_bytes_));
  while (!barriers_.empty() && barriers_.front().target <= durable_total_) {
    Barrier b = std::move(barriers_.front());
    barriers_.pop_front();
    b.done();
  }
}

void WalAcceptorStore::compact() {
  // Fold the durable journal down to: one checkpoint (the fold of every
  // promise/checkpoint record) followed by the newest accept per live
  // instance. Records below the checkpointed trim horizon are dropped —
  // this is the log-compaction half of the trim protocol.
  Ballot promised;
  InstanceId trim = 0;
  std::map<InstanceId, Record> live;
  for (size_t i = 0; i < len_; ++i) {
    Record& rec = slab_[i];
    switch (rec.kind) {
      case Kind::kPromise:
        promised = std::max(promised, rec.ballot);
        break;
      case Kind::kCheckpoint:
        promised = std::max(promised, rec.ballot);
        trim = std::max(trim, rec.trim_horizon);
        break;
      case Kind::kAccept: {
        promised = std::max(promised, rec.ballot);
        auto [it, inserted] = live.try_emplace(rec.instance);
        const bool decided = it->second.decided || rec.decided;
        it->second = std::move(rec);
        it->second.decided = decided;
        break;
      }
    }
  }
  live.erase(live.begin(), live.lower_bound(trim));

  len_ = 0;
  journal_bytes_ = 0;
  Record ckpt;
  ckpt.kind = Kind::kCheckpoint;
  ckpt.ballot = promised;
  ckpt.trim_horizon = trim;
  ckpt.bytes = kRecordHeaderBytes;
  push_slab(std::move(ckpt));
  for (auto& [instance, rec] : live) push_slab(std::move(rec));
  // Shrink the slab if compaction freed most of it (post-trim).
  if (cap_ > 16 && len_ < cap_ / 4) {
    const size_t new_cap = std::max<size_t>(16, cap_ / 2);
    Record* shrunk = new Record[new_cap];
    for (size_t i = 0; i < len_; ++i) shrunk[i] = std::move(slab_[i]);
    delete[] slab_;
    slab_ = shrunk;
    cap_ = new_cap;
  }
  compactions_->add(host_->now());
}

void WalAcceptorStore::on_power_loss() {
  // Un-flushed appends and the barriers waiting on them die with the
  // power; the durable slab is exactly what replay() will see.
  pending_.clear();
  barriers_.clear();
  appended_total_ = durable_total_;
  device_.on_power_loss();
}

RecoveredState WalAcceptorStore::replay() {
  RecoveredState out;
  std::map<InstanceId, RecoveredState::Entry> entries;
  for (size_t i = 0; i < len_; ++i) {
    const Record& rec = slab_[i];
    switch (rec.kind) {
      case Kind::kPromise:
        out.promised = std::max(out.promised, rec.ballot);
        break;
      case Kind::kCheckpoint:
        out.promised = std::max(out.promised, rec.ballot);
        if (rec.trim_horizon > out.trim_horizon) {
          out.trim_horizon = rec.trim_horizon;
          entries.erase(entries.begin(), entries.lower_bound(out.trim_horizon));
        }
        break;
      case Kind::kAccept: {
        out.promised = std::max(out.promised, rec.ballot);
        if (rec.instance < out.trim_horizon) break;
        RecoveredState::Entry& e = entries[rec.instance];
        e.instance = rec.instance;
        e.ballot = rec.ballot;
        e.value = rec.value;
        e.decided = e.decided || rec.decided;
        break;
      }
    }
  }
  out.entries.reserve(entries.size());
  for (auto& [instance, e] : entries) out.entries.push_back(std::move(e));
  return out;
}

Tick WalAcceptorStore::replay_cost() const { return device_.replay_cost(journal_bytes_); }

}  // namespace epx::paxos
