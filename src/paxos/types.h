// Core value types of the Paxos / atomic multicast layer.
//
// Terminology follows the paper:
//   * a *stream* is one Multi-Paxos sequence (one Ring Paxos instance),
//   * an *instance* is one consensus decision within a stream,
//   * a *slot* is one logical position in a stream's totally-ordered
//     output: each application command occupies one slot, and skip
//     proposals occupy runs of empty slots used to pace idle streams
//     (paper §III-B); dMerge round-robins over slots,
//   * a *command* is the client-visible multicast value, which is either
//     an application payload or one of the protocol's control commands
//     (subscribe / unsubscribe / prepare hint, paper §IV-B, §V-C).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/wire.h"

namespace epx::paxos {

using net::NodeId;
using StreamId = uint32_t;
using GroupId = uint32_t;
using InstanceId = uint64_t;
using SlotIndex = uint64_t;

inline constexpr StreamId kInvalidStream = 0xffffffff;
inline constexpr GroupId kInvalidGroup = 0xffffffff;

/// Paxos ballot: totally ordered by (round, leader).
struct Ballot {
  uint32_t round = 0;
  NodeId leader = net::kInvalidNode;

  friend auto operator<=>(const Ballot&, const Ballot&) = default;

  std::string to_string() const {
    return "b(" + std::to_string(round) + "," + std::to_string(leader) + ")";
  }
};

enum class CommandKind : uint8_t {
  kApp = 0,         ///< application payload
  kSubscribe = 1,   ///< subscribe_msg(group, stream)   — paper §IV-B
  kUnsubscribe = 2, ///< unsubscribe_msg(group, stream) — paper §IV-B
  kPrepareHint = 3, ///< prepare_msg(group, stream)     — paper §V-C
};

/// A multicast value. Commands are immutable once proposed; the payload
/// is shared to keep copies cheap. Large synthetic payloads (e.g. the
/// paper's 32 KB benchmark values) can be represented by size only
/// (payload == nullptr, payload_size > 0); the codec materialises zeros
/// for them so encode/decode stays well-defined, and decode fills in
/// both fields.
struct Command {
  CommandKind kind = CommandKind::kApp;
  uint64_t id = 0;           ///< globally unique (client id << 32 | sequence)
  NodeId client = net::kInvalidNode;  ///< reply-to endpoint
  GroupId group = kInvalidGroup;      ///< target group of control commands
  StreamId target_stream = kInvalidStream;  ///< stream being (un)subscribed
  std::shared_ptr<const std::string> payload;
  uint64_t payload_size = 0;  ///< used when payload is synthetic

  uint64_t payload_bytes() const { return payload ? payload->size() : payload_size; }

  bool is_control() const { return kind != CommandKind::kApp; }

  static void fields(auto& c, auto& io) {
    io.enum8(c.kind, CommandKind::kPrepareHint);  // the last kind
    io.varint(c.id);
    io.u32(c.client);
    io.varint(c.group);
    io.varint(c.target_stream);
    io.payload(c.payload, c.payload_size);
  }

  std::string debug_string() const;
};

/// Builds a unique command id from a client/node id and a sequence no.
constexpr uint64_t make_command_id(NodeId node, uint32_t seq) {
  return (static_cast<uint64_t>(node) << 32) | seq;
}

/// What one Paxos instance decides: either a batch of commands (each
/// taking one slot) or a run of skip slots, or a no-op (neither), which
/// consumes no slots and is used by a recovering coordinator to fill
/// abandoned instances.
struct Proposal {
  std::vector<Command> commands;
  uint64_t skip_slots = 0;
  /// Absolute index of this proposal's first slot within the stream.
  /// Assigned by the coordinator at propose time and agreed through
  /// consensus with the rest of the value, so learners that catch up
  /// from a trimmed log still see a consistent slot numbering (dMerge
  /// alignment depends on it).
  SlotIndex first_slot = 0;

  uint64_t slot_count() const { return commands.size() + skip_slots; }

  static void fields(auto& p, auto& io) {
    io.list(p.commands);
    io.varint(p.skip_slots);
    io.varint(p.first_slot);
  }
};

/// A frozen proposal, shared across every hop of the consensus path:
/// the coordinator materialises a batch once at flush time, and accepts,
/// decision fan-out, re-proposals and recovery replies all reference the
/// same allocation instead of copying the command vector.
using ProposalPtr = std::shared_ptr<const Proposal>;

/// Freezes a fully-built proposal into pool-backed shared storage.
ProposalPtr make_proposal(Proposal&& p);

/// Shared immutable no-op, used as the default value of proposal-
/// carrying messages so a default-constructed message still encodes to
/// its historical wire bytes.
const ProposalPtr& empty_proposal();

/// Factory helpers for control commands.
Command make_subscribe(uint64_t id, GroupId group, StreamId stream);
Command make_unsubscribe(uint64_t id, GroupId group, StreamId stream);
Command make_prepare_hint(uint64_t id, GroupId group, StreamId stream);

}  // namespace epx::paxos
