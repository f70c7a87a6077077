// Fixture: layout completeness violations — epx-lint R4 must flag every
// struct here (a data member missing from the fields list never reaches
// the wire: it is neither sized, encoded nor decoded).
#pragma once
#include <cstdint>
#include <memory>

namespace epx_fixture {

struct Value {};
std::shared_ptr<const Value> make_default();

/// `epoch` is never listed: receivers see a default epoch.
struct HalfListedMsg {
  uint64_t stream = 0;
  uint32_t epoch = 0;

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);  // epoch forgotten — R4
  }
};

/// `trace` (a causal span id) is never listed: the receiving side's
/// spans silently detach from the sender's.
struct HalfTracedMsg {
  uint64_t command_id = 0;
  uint64_t trace = 0;

  static void fields(auto& m, auto& io) { io.varint(m.command_id); }
};

/// `ballot` is never put on the wire at all.
struct NeverListedMsg {
  uint64_t instance = 0;
  uint32_t ballot = 0;

  NeverListedMsg() = default;

  static void fields(auto& m, auto& io) { io.varint(m.instance); }
};

/// A member whose default initializer has a call in it is still a data
/// member: `value` is forgotten.
struct DefaultedValueMsg {
  uint64_t instance = 0;
  std::shared_ptr<const Value> value = make_default();

  static void fields(auto& m, auto& io) { io.varint(m.instance); }
};

}  // namespace epx_fixture
