#include "kvstore/kv_store.h"

#include <algorithm>

namespace epx::kv {

void KvStore::put(std::string_view key, uint64_t hash, std::string_view value,
                  Payload owner) {
  const auto same_key = [key](const Slot& s) { return s.entry->first == key; };
  if (Slot* hit = index_.find(hash, same_key)) {
    hit->entry->second.owner = std::move(owner);
    hit->entry->second.bytes = value;
    return;
  }
  Entry& entry =
      *ordered_.emplace(std::string(key), Value{std::move(owner), value, hash}).first;
  index_.insert(Slot{hash, &entry});
}

const KvStore::Value* KvStore::find_value(std::string_view key, uint64_t hash) const {
  const auto same_key = [key](const Slot& s) { return s.entry->first == key; };
  const Slot* hit = index_.find(hash, same_key);
  return hit == nullptr ? nullptr : &hit->entry->second;
}

net::SharedBody KvStore::range(std::string_view lo,
                               std::optional<std::string_view> hi) const {
  // Count the range first, so its pairs take one pool block.
  const auto first = ordered_.lower_bound(lo);
  auto last = first;
  size_t n = 0;
  for (; last != ordered_.end() && (!hi || last->first < *hi); ++last) ++n;
  net::SharedBody body = net::SharedBody::pair_list(n);
  for (auto it = first; it != last; ++it) {
    body.add(it->first, it->second.owner, it->second.bytes);
  }
  return body;
}

bool operator==(const KvStore& a, const KvStore& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && x.second.bytes == y.second.bytes;
                    });
}

}  // namespace epx::kv
