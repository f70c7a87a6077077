#include "kvstore/kv_store.h"

#include <algorithm>

namespace epx::kv {

size_t KvStore::find(std::string_view key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].entry != nullptr &&
         (slots_[i].hash != hash || slots_[i].entry->first != key)) {
    i = (i + 1) & mask;
  }
  return i;
}

void KvStore::put(std::string_view key, uint64_t hash, std::string_view value,
                  Payload owner) {
  size_t i = find(key, hash);
  if (Entry* hit = slots_[i].entry) {
    hit->second.owner = std::move(owner);
    hit->second.bytes = value;
    return;
  }
  if ((ordered_.size() + 1) * 2 > slots_.size()) {
    grow();
    i = find(key, hash);
  }
  Entry& entry =
      *ordered_.emplace(std::string(key), Value{std::move(owner), value, hash}).first;
  slots_[i] = Slot{hash, &entry};
}

const KvStore::Value* KvStore::find_value(std::string_view key, uint64_t hash) const {
  const Entry* hit = slots_[find(key, hash)].entry;
  return hit == nullptr ? nullptr : &hit->second;
}

void KvStore::unindex(const Entry* entry) {
  const size_t mask = slots_.size() - 1;
  size_t i = entry->second.hash & mask;
  while (slots_[i].entry != entry) i = (i + 1) & mask;
  for (size_t j = i;;) {
    j = (j + 1) & mask;
    if (slots_[j].entry == nullptr) break;
    // Slot j may fill the hole at i if i lies on its probe path.
    if (((j - slots_[j].hash) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
}

void KvStore::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.entry == nullptr) continue;
    size_t i = s.hash & mask;
    while (slots_[i].entry != nullptr) i = (i + 1) & mask;
    slots_[i] = s;
  }
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
