// KvOp: the key/value store's command payload, carried inside a
// multicast Command (paper §VI: put, get, and the multi-partition
// getrange).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/buffer.h"
#include "util/hash.h"
#include "util/status.h"

namespace epx::kv {

enum class OpKind : uint8_t {
  kPut = 0,
  kGet = 1,
  kGetRange = 2,  ///< consistent scan of [key, end_key)
};

/// A view of one operation. The fields point into storage the caller
/// keeps alive: the encoded payload for a decoded op, the caller's own
/// strings for one about to be encoded.
struct KvOp {
  OpKind kind = OpKind::kGet;
  std::string_view key;
  std::string_view value;    ///< put payload
  std::string_view end_key;  ///< getrange upper bound (exclusive)

  bool is_multi_partition() const { return kind == OpKind::kGetRange; }
  uint64_t hash() const { return key_hash(key); }

  /// Serialises into a Command payload string, allocated once at its
  /// exact size.
  std::string encode() const;
  /// Views into `payload`; fails on a truncated payload or an unknown
  /// kind.
  static Result<KvOp> decode(std::string_view payload);
};

/// Encodes a list of key/value pairs (getrange partial results).
std::string encode_pairs(const std::vector<std::pair<std::string, std::string>>& pairs);
std::vector<std::pair<std::string, std::string>> decode_pairs(std::string_view data);

}  // namespace epx::kv
