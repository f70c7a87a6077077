#include "kvstore/kv_store.h"

#include <algorithm>

#include "kvstore/kv_op.h"
#include "net/buffer.h"

namespace epx::kv {

void KvStore::put(std::string_view key, std::string_view value, Payload owner) {
  const auto hit = hash_index_.find(key);
  if (hit != hash_index_.end()) {
    hit->second->second = Value{std::move(owner), value};
    return;
  }
  const auto it =
      ordered_.emplace(std::string(key), Value{std::move(owner), value}).first;
  hash_index_.emplace(it->first, it);
}

std::optional<std::string_view> KvStore::get(std::string_view key) const {
  const auto hit = hash_index_.find(key);
  if (hit == hash_index_.end()) return std::nullopt;
  return hit->second->second.bytes;
}

std::string KvStore::encode_range(std::string_view lo, std::optional<std::string_view> hi,
                                  size_t* count) const {
  // Two passes over the range: size it, then write it into one buffer.
  const auto first = ordered_.lower_bound(lo);
  auto last = first;
  size_t n = 0;
  size_t bytes = 0;
  for (; last != ordered_.end() && (!hi || last->first < *hi); ++last) {
    ++n;
    bytes += net::Writer::bytes_size(last->first.size()) +
             net::Writer::bytes_size(last->second.bytes.size());
  }
  std::string out;
  out.reserve(net::Writer::varint_size(n) + bytes);
  append_varint(out, n);
  for (auto it = first; it != last; ++it) {
    append_bytes(out, it->first);
    append_bytes(out, it->second.bytes);
  }
  if (count != nullptr) *count = n;
  return out;
}

bool operator==(const KvStore& a, const KvStore& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && x.second.bytes == y.second.bytes;
                    });
}

}  // namespace epx::kv
