// R8 fixture (clean): the same mini protocol with every kind fully
// wired — each enum kind has a struct with a fields list, and every
// struct is sent, registered and handled by the role's dispatch.
#pragma once

enum class MsgType : uint16_t {
  kPing = 1,
  kPong,
};

struct PingMsg final : Wire<PingMsg> {
  static constexpr MsgType kType = MsgType::kPing;
  uint32_t x = 0;

  static void fields(auto& m, auto& io) { io.u32(m.x); }
};

struct PongMsg final : Wire<PongMsg> {
  static constexpr MsgType kType = MsgType::kPong;
  uint32_t y = 0;

  static void fields(auto& m, auto& io) { io.u32(m.y); }
};

inline void register_mini_messages(MessageCodec& codec) {
  codec.register_type(MsgType::kPing, PingMsg::decode);
  codec.register_type(MsgType::kPong, PongMsg::decode);
}

inline void on_message(Role& role, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kPing:
      role.send(0, make_message<PongMsg>());
      break;
    case MsgType::kPong:
      role.send(0, make_message<PingMsg>());
      break;
    default:
      break;
  }
}
