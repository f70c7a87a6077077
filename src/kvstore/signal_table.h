// SignalTable: getrange signals that wait for their getrange.
//
// A replica executes a multi-partition getrange once every other
// partition has signalled that it delivered it (paper §VI). A signal that
// arrives first waits here as one (command id, partition) record, in a
// FlatTable (util/flat_table.h) keyed by the command id alone: the
// records of one getrange share one probe run, so a lookup scans that
// run and erase(id) clears it. Nothing is allocated per record.
//
// Memory is bounded. Each record carries an arrival stamp, and when the
// table holds `capacity` records, one sweep evicts all but the newest
// capacity / 2: oldest first, amortised O(1) per insert.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "util/flat_table.h"

namespace epx::kv {

class SignalTable {
 public:
  /// Holds at most `capacity` (>= 2) records.
  explicit SignalTable(size_t capacity) : capacity_(capacity) { assert(capacity_ >= 2); }

  /// Records that `partition` signalled `id`; a repeat is a no-op.
  void insert(uint64_t id, uint32_t partition) {
    if (contains(id, partition)) return;
    if (records_.size() == capacity_) {
      const uint64_t evict_through = stamp_ - capacity_ / 2;
      records_.retain([evict_through](const Record& r) { return r.stamp > evict_through; });
    }
    records_.insert(Record{id, partition, ++stamp_});
  }

  bool contains(uint64_t id, uint32_t partition) const {
    const auto same = [partition](const Record& r) { return r.partition == partition; };
    return records_.find(id, same) != nullptr;
  }

  /// Erases every record of `id`.
  void erase(uint64_t id) {
    const auto any = [](const Record&) { return true; };
    while (Record* r = records_.find(id, any)) records_.erase(r);
  }

  size_t size() const { return records_.size(); }

 private:
  struct Record {
    uint64_t id = 0;
    uint32_t partition = 0;
    uint64_t stamp = 0;  ///< arrival order, from 1; 0 marks an empty slot
    bool empty() const { return stamp == 0; }
    uint64_t hash() const { return id; }
  };

  size_t capacity_;
  FlatTable<Record> records_;
  uint64_t stamp_ = 0;  ///< the last stamp handed out
};

}  // namespace epx::kv
