// Application-level reply message shared by the multicast services.
//
// Replicas reply directly to the client that multicast a command (paper
// §VI: "replicas execute the commands ... and reply back directly to the
// client"). The same message carries key/value store results; plain
// broadcast benchmarks use it with an empty payload.
#pragma once

#include "net/wire.h"

namespace epx::multicast {

using net::MsgType;
using net::Wire;

struct ReplyMsg final : Wire<ReplyMsg> {
  static constexpr MsgType kType = MsgType::kKvReply;
  uint64_t command_id = 0;
  uint8_t status = 0;  ///< 0 = ok; application-defined otherwise
  uint64_t shard = 0;  ///< replying partition id (getrange partial assembly)
  std::shared_ptr<const std::string> payload;

  ReplyMsg() = default;
  ReplyMsg(uint64_t id, uint8_t st) : command_id(id), status(st) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.command_id);
    io.u8(m.status);
    io.varint(m.shard);
    io.bytes(m.payload);
  }
};

/// Registers multicast-level message decoders.
void register_multicast_messages();

}  // namespace epx::multicast
