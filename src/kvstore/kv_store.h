// KvStore: one replica's key/value map.
//
// Values are never copied out of the commands that wrote them: an entry
// holds a shared reference to its latest put's payload plus a view of
// the value bytes inside it, so the replicas of a partition all point at
// the one payload the client built (DESIGN.md §12, "freeze once, share
// everywhere"). An overwrite or an erase drops the entry's reference.
//
// Two indexes over the same entries. The ordered one owns them and
// serves every scan (getrange, purge, snapshots, equality); the hash one
// maps a key to its ordered-index node, so a get, or a put to an
// existing key, is one hash lookup and no tree walk. The hash index is
// never iterated: its order is not deterministic (epx-lint R2).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace epx::kv {

class KvStore {
 public:
  using Payload = std::shared_ptr<const std::string>;

  struct Value {
    Payload owner;  ///< the buffer `bytes` lives in
    std::string_view bytes;
  };
  using Ordered = std::map<std::string, Value, std::less<>>;

  KvStore() = default;
  // The hash index points into this object's ordered index.
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Sets `key` to `value`, which must lie inside `*owner`.
  void put(std::string_view key, std::string_view value, Payload owner);
  std::optional<std::string_view> get(std::string_view key) const;

  /// Erases every entry whose key matches `pred`; returns how many.
  template <typename Pred>
  size_t erase_if(Pred pred) {
    size_t erased = 0;
    for (auto it = ordered_.begin(); it != ordered_.end();) {
      if (pred(std::string_view(it->first))) {
        hash_index_.erase(it->first);
        it = ordered_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

  /// Encodes the entries with `lo <= key < hi` (no upper bound when `hi`
  /// is unset) in key order, byte for byte as encode_pairs() would.
  /// Stores the number of entries in `*count` when given.
  std::string encode_range(std::string_view lo, std::optional<std::string_view> hi,
                           size_t* count = nullptr) const;

  size_t size() const { return ordered_.size(); }
  Ordered::const_iterator begin() const { return ordered_.begin(); }
  Ordered::const_iterator end() const { return ordered_.end(); }

  /// Same keys with the same value bytes, wherever the bytes live.
  friend bool operator==(const KvStore& a, const KvStore& b);

 private:
  Ordered ordered_;
  // Keys are views of ordered_'s keys.
  std::unordered_map<std::string_view, Ordered::iterator> hash_index_;
};

}  // namespace epx::kv
