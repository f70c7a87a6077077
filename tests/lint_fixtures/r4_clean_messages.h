// Fixture: complete layouts — must NOT trip epx-lint R4.
#pragma once
#include <cstdint>
#include <memory>

namespace epx_fixture {

enum class MsgType : uint16_t { kComplete = 1 };
struct Value {
  static void fields(auto&, auto&) {}
};
std::shared_ptr<const Value> make_default();

struct CompleteMsg {
  static constexpr MsgType kType = MsgType::kComplete;  // not a data member
  uint64_t stream = 0;
  uint32_t epoch = 0;
  bool urgent = false;
  std::shared_ptr<const Value> value = make_default();

  CompleteMsg() = default;
  CompleteMsg(uint64_t s, uint32_t e) : stream(s), epoch(e) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.epoch);
    io.u8(m.urgent);
    io.nested(m.value);
  }
};

/// Flag-gated optional fields still appear in the list — the gate
/// changes when the bytes exist, not who lists them.
struct GatedTraceMsg {
  uint64_t command_id = 0;
  uint64_t trace = 0;

  static bool trace_on_wire() { return false; }

  static void fields(auto& m, auto& io) {
    io.varint(m.command_id);
    if (trace_on_wire()) io.varint(m.trace);
  }
};

/// Plain config structs without a fields list are not wire structs and
/// are ignored by R4.
struct NotAWireStruct {
  uint64_t anything = 0;
  double other = 0.0;
};

}  // namespace epx_fixture
