// KV-specific wire messages: multi-partition execution signals (the
// "direct signal messages" of paper §VI, after Scalable SMR) and
// snapshot-based state transfer for replica recovery.
#pragma once

#include "net/wire.h"

namespace epx::kv {

using net::MsgType;
using net::Wire;

/// "I delivered multi-partition command `command_id` and my partition is
/// ready to execute it."
struct KvSignalMsg final : Wire<KvSignalMsg> {
  static constexpr MsgType kType = MsgType::kKvSignal;
  uint64_t command_id = 0;
  uint32_t partition_id = 0;

  KvSignalMsg() = default;
  KvSignalMsg(uint64_t cmd, uint32_t part) : command_id(cmd), partition_id(part) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.command_id);
    io.varint(m.partition_id);
  }
};

struct SnapshotRequestMsg final : Wire<SnapshotRequestMsg> {
  static constexpr MsgType kType = MsgType::kSnapshotRequest;
  uint64_t request_id = 0;

  SnapshotRequestMsg() = default;
  explicit SnapshotRequestMsg(uint64_t id) : request_id(id) {}

  static void fields(auto& m, auto& io) { io.varint(m.request_id); }
};

/// Snapshot of a replica's store plus the merger cut it was taken at:
/// per-stream next slot indexes, so the receiver can resume delivery at
/// exactly the snapshot point.
struct SnapshotReplyMsg final : Wire<SnapshotReplyMsg> {
  static constexpr MsgType kType = MsgType::kSnapshotReply;
  uint64_t request_id = 0;
  std::shared_ptr<const std::string> store;  ///< encode_pairs() payload
  std::vector<std::pair<uint32_t, uint64_t>> stream_positions;
  /// Stream the donor's round-robin consumes next — the joiner resumes
  /// exactly there.
  uint32_t next_stream = 0xffffffff;
  /// False when the donor was mid-subscription (kScanning/kAligning);
  /// the joiner should retry later.
  bool clean = true;

  static void fields(auto& m, auto& io) {
    io.varint(m.request_id);
    io.bytes(m.store);
    io.list(m.stream_positions, [](auto& position, auto& pio) {
      pio.varint(position.first);
      pio.varint(position.second);
    });
    io.u32(m.next_stream);
    io.u8(m.clean);
  }
};

void register_kv_messages();

}  // namespace epx::kv
