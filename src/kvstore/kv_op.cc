#include "kvstore/kv_op.h"

#include <algorithm>
#include <vector>

namespace epx::kv {

std::string KvOp::encode() const {
  net::Writer w;
  w.u8(static_cast<uint8_t>(kind));
  w.bytes(key);
  w.bytes(value);
  w.bytes(end_key);
  return std::string(reinterpret_cast<const char*>(w.data().data()), w.size());
}

KvOp KvOp::decode(std::string_view payload) {
  net::Reader r(payload);
  KvOp op;
  op.kind = static_cast<OpKind>(r.u8());
  op.key = r.bytes();
  op.value = r.bytes();
  op.end_key = r.bytes();
  return op;
}

std::string encode_pairs(const std::vector<std::pair<std::string, std::string>>& pairs) {
  net::Writer w;
  w.varint(pairs.size());
  for (const auto& [k, v] : pairs) {
    w.bytes(k);
    w.bytes(v);
  }
  return std::string(reinterpret_cast<const char*>(w.data().data()), w.size());
}

std::vector<std::pair<std::string, std::string>> decode_pairs(std::string_view data) {
  net::Reader r(data);
  std::vector<std::pair<std::string, std::string>> out;
  const uint64_t n = r.varint();
  out.reserve(std::min<uint64_t>(n, r.remaining()));  // a pair takes >= 2 bytes
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string k = r.bytes();
    std::string v = r.bytes();
    out.emplace_back(std::move(k), std::move(v));
  }
  return out;
}

}  // namespace epx::kv
