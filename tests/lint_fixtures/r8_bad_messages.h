// R8 fixture: message-flow exhaustiveness violations. A self-contained
// mini protocol (enum + wire structs + codec registration + one role's
// dispatch) with deliberate holes:
//   1. kOrphan: enum kind with no wire struct anywhere (dead kind)
//   2. PongMsg: never sent
//   3. PongMsg: never handled by any role
//   4. PongMsg: no fields list
//   5. PongMsg: never registered with the codec
#pragma once

enum class MsgType : uint16_t {
  kPing = 1,
  kPong,
  kOrphan,  // planted: no struct ever implements this kind
};

struct PingMsg final : Wire<PingMsg> {
  static constexpr MsgType kType = MsgType::kPing;
  uint32_t x = 0;

  static void fields(auto& m, auto& io) { io.u32(m.x); }
};

// Planted: a kind and a member, but nothing lists, sends, handles or
// registers it.
struct PongMsg final : Message {
  static constexpr MsgType kType = MsgType::kPong;
  uint32_t y = 0;
};

inline void register_mini_messages(MessageCodec& codec) {
  codec.register_type(MsgType::kPing, PingMsg::decode);
}

inline void on_message(Role& role, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kPing:
      role.send(0, make_message<PingMsg>());
      break;
    default:
      break;
  }
}
