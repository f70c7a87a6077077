#include "kvstore/kv_op.h"

#include <algorithm>
#include <vector>

namespace epx::kv {

std::string KvOp::encode() const {
  using net::Writer;
  std::string out;
  out.reserve(1 + Writer::bytes_size(key.size()) + Writer::bytes_size(value.size()) +
              Writer::bytes_size(end_key.size()));
  net::StringWriter w(out);
  w.u8(static_cast<uint8_t>(kind));
  w.bytes(key);
  w.bytes(value);
  w.bytes(end_key);
  return out;
}

Result<KvOp> KvOp::decode(std::string_view payload) {
  net::Reader r(payload);
  const uint8_t kind = r.u8();
  KvOp op;
  op.key = r.bytes_view();
  op.value = r.bytes_view();
  op.end_key = r.bytes_view();
  if (!r.ok() || kind > static_cast<uint8_t>(OpKind::kGetRange)) {
    return Status::corruption("malformed kv op");
  }
  op.kind = static_cast<OpKind>(kind);
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
