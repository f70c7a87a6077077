// Application-level reply message shared by the multicast services.
//
// Replicas reply directly to the client that multicast a command (paper
// §VI: "replicas execute the commands ... and reply back directly to the
// client"). The same message carries key/value store results; plain
// broadcast benchmarks use it with an empty payload.
//
// A KV result is a net::SharedBody: a get's reply views the stored value
// and a getrange's reply lists its pairs, each holding a reference to
// the payload its value lives in. No value is copied until something
// encodes the message, and the encoding is the one an owned string would
// give (DESIGN.md §12).
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
  net::SharedBody payload;  ///< empty for puts, statuses and broadcast acks

  ReplyMsg() = default;
  ReplyMsg(uint64_t id, uint8_t st) : command_id(id), status(st) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.command_id);
    io.u8(m.status);
    io.varint(m.shard);
    io.body(m.payload);
  }
};

// Every put, status and broadcast ack is a ReplyMsg, and a replaying
// subscriber can hold hundreds of thousands in flight: 48 bytes plus the
// shared control block keep each in the envelope pool's 64-byte class.
static_assert(sizeof(ReplyMsg) <= 48);

/// Registers multicast-level message decoders.
void register_multicast_messages();

}  // namespace epx::multicast
