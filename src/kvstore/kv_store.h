// KvStore: one replica's key/value map.
//
// Values are never copied out of the commands that wrote them: an entry
// holds a shared reference to its latest put's payload plus a view of
// the value bytes inside it, so the replicas of a partition all point at
// the one payload the client built (DESIGN.md §12, "freeze once, share
// everywhere"). An overwrite or an erase drops the entry's reference.
// Reads share the bytes the same way: a get hands out the entry's
// {payload, view}, and range() collects a key interval into a
// net::SharedBody pair list that references each value's payload, so a
// reply stays valid after the entries it was read from change.
//
// Two indexes over the same entries. The ordered one owns them and
// serves every scan (getrange, purge, snapshots, equality). The hash one
// is a FlatTable (util/flat_table.h) of 16-byte {hash, entry} slots keyed
// by the key's partition hash (util/hash.h key_hash), which the replica
// computes anyway to check ownership and passes in, so an op hashes its
// key once. A get, or a put to an existing key, is one linear-probe run
// plus one ordered-index node: no allocation, no tree walk. Only a new
// key's insert walks the tree.
//
// A partition owns one contiguous hash range, which fixes the top bits
// of its keys' hashes. Their home slots still spread: the table takes
// them from the top bits of the Fibonacci product hash * 2^64/phi,
// which depend on every bit of the hash. The table is never iterated:
// the ordered index is the only one anything walks (epx-lint R2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/flat_table.h"
#include "util/hash.h"

namespace epx::kv {

class KvStore {
 public:
  using Payload = std::shared_ptr<const std::string>;

  struct Value {
    Payload owner;  ///< the buffer `bytes` lives in
    std::string_view bytes;
    uint64_t hash = 0;  ///< the key's hash, as given to put()
  };
  using Ordered = std::map<std::string, Value, std::less<>>;

  KvStore() = default;
  // The hash index points into this object's ordered index.
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Sets `key` to `value`, which must lie inside `*owner`. `hash` is
  /// key_hash(key); a key must come with the same hash every time.
  void put(std::string_view key, uint64_t hash, std::string_view value, Payload owner);
  /// The entry for `key`, or nullptr.
  const Value* find_value(std::string_view key, uint64_t hash) const;
  std::optional<std::string_view> get(std::string_view key, uint64_t hash) const {
    const Value* v = find_value(key, hash);
    return v == nullptr ? std::nullopt : std::optional<std::string_view>(v->bytes);
  }
  std::optional<std::string_view> get(std::string_view key) const {
    return get(key, key_hash(key));
  }

  /// Erases every entry whose key matches `pred`; returns how many.
  template <typename Pred>
  size_t erase_if(Pred pred) {
    size_t erased = 0;
    for (auto it = ordered_.begin(); it != ordered_.end();) {
      if (pred(std::string_view(it->first))) {
        const Entry* entry = &*it;
        const auto same_entry = [entry](const Slot& s) { return s.entry == entry; };
        index_.erase(index_.find(entry->second.hash, same_entry));
        it = ordered_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

  /// The entries with `lo <= key < hi` (no upper bound when `hi` is
  /// unset) in key order, as a pair list that shares their values'
  /// payloads. Its str() is what encode_pairs() gives for the same
  /// pairs.
  net::SharedBody range(std::string_view lo, std::optional<std::string_view> hi) const;

  size_t size() const { return ordered_.size(); }
  Ordered::const_iterator begin() const { return ordered_.begin(); }
  Ordered::const_iterator end() const { return ordered_.end(); }

  /// Same keys with the same value bytes, wherever the bytes live.
  friend bool operator==(const KvStore& a, const KvStore& b);

 private:
  using Entry = Ordered::value_type;
  struct Slot {
    uint64_t key_hash = 0;
    Entry* entry = nullptr;  ///< nullptr: the slot is empty
    bool empty() const { return entry == nullptr; }
    uint64_t hash() const { return key_hash; }
  };

  Ordered ordered_;
  FlatTable<Slot> index_;  ///< never iterated
};

}  // namespace epx::kv
