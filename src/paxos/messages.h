// Wire messages of the Paxos / stream layer.
//
// The dissemination topology follows Ring Paxos (paper §VI): the
// coordinator sends Accept (phase 2a) to the first acceptor of the ring;
// each acceptor accepts and forwards; the acceptor completing the quorum
// emits Decision to the stream's registered learners and the coordinator.
// Phase 1 (leader change) uses direct request/reply.
//
// Each message lists its wire layout once, in `fields` (net/wire.h).
#pragma once

#include <optional>

#include "paxos/types.h"

namespace epx::paxos {

using net::MsgType;
using net::Wire;

/// Client → coordinator: please order this command in `stream`.
struct ClientProposeMsg final : Wire<ClientProposeMsg> {
  static constexpr MsgType kType = MsgType::kClientPropose;
  StreamId stream = kInvalidStream;
  Command command;

  ClientProposeMsg() = default;
  ClientProposeMsg(StreamId s, Command c) : stream(s), command(std::move(c)) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.nested(m.command);
  }
};

/// Coordinator → client: command rejected (not leader, or overloaded).
struct ProposeRejectMsg final : Wire<ProposeRejectMsg> {
  static constexpr MsgType kType = MsgType::kProposeReject;
  StreamId stream = kInvalidStream;
  uint64_t command_id = 0;
  NodeId current_leader = net::kInvalidNode;

  ProposeRejectMsg() = default;
  ProposeRejectMsg(StreamId s, uint64_t id, NodeId leader)
      : stream(s), command_id(id), current_leader(leader) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.varint(m.command_id);
    io.u32(m.current_leader);
  }
};

/// Phase 1a: new leader asks acceptors to promise `ballot` for every
/// instance >= from_instance.
struct Phase1aMsg final : Wire<Phase1aMsg> {
  static constexpr MsgType kType = MsgType::kPhase1a;
  StreamId stream = kInvalidStream;
  Ballot ballot;
  InstanceId from_instance = 0;

  Phase1aMsg() = default;
  Phase1aMsg(StreamId s, Ballot b, InstanceId from)
      : stream(s), ballot(b), from_instance(from) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.ballot.round);
    io.u32(m.ballot.leader);
    io.varint(m.from_instance);
  }
};

/// One accepted entry reported in Phase 1b. The value references the
/// acceptor's stored proposal; wire bytes are unchanged vs. the old
/// by-value representation.
struct AcceptedEntry {
  InstanceId instance = 0;
  Ballot value_ballot;
  ProposalPtr value = empty_proposal();
  bool decided = false;

  static void fields(auto& e, auto& io) {
    io.varint(e.instance);
    io.u32(e.value_ballot.round);
    io.u32(e.value_ballot.leader);
    io.nested(e.value);
    io.u8(e.decided);
  }
};

/// Phase 1b: acceptor's promise (or rejection carrying a higher ballot),
/// with every value it has accepted at or above from_instance.
struct Phase1bMsg final : Wire<Phase1bMsg> {
  static constexpr MsgType kType = MsgType::kPhase1b;
  StreamId stream = kInvalidStream;
  Ballot ballot;            ///< ballot being answered
  Ballot promised;          ///< acceptor's current promise (>= ballot if ok)
  bool ok = false;
  NodeId acceptor = net::kInvalidNode;
  std::vector<AcceptedEntry> accepted;

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.ballot.round);
    io.u32(m.ballot.leader);
    io.u32(m.promised.round);
    io.u32(m.promised.leader);
    io.u8(m.ok);
    io.u32(m.acceptor);
    io.list(m.accepted);
  }
};

/// Phase 2a travelling along the acceptor ring. accept_count counts the
/// acceptors that accepted so far (including the sender of this hop).
struct AcceptMsg final : Wire<AcceptMsg> {
  static constexpr MsgType kType = MsgType::kAccept;
  StreamId stream = kInvalidStream;
  Ballot ballot;
  InstanceId instance = 0;
  ProposalPtr value = empty_proposal();  ///< shared with the proposer's window
  uint32_t accept_count = 0;

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.ballot.round);
    io.u32(m.ballot.leader);
    io.varint(m.instance);
    io.nested(m.value);
    io.u32(m.accept_count);
  }
};

/// Decided instance fanned out to learners and the coordinator.
struct DecisionMsg final : Wire<DecisionMsg> {
  static constexpr MsgType kType = MsgType::kDecision;
  StreamId stream = kInvalidStream;
  InstanceId instance = 0;
  ProposalPtr value = empty_proposal();  ///< shared across the learner fan-out

  DecisionMsg() = default;
  DecisionMsg(StreamId s, InstanceId i, ProposalPtr v)
      : stream(s), instance(i), value(std::move(v)) {}
  DecisionMsg(StreamId s, InstanceId i, Proposal v)
      : stream(s), instance(i), value(make_proposal(std::move(v))) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.varint(m.instance);
    io.nested(m.value);
  }
};

/// Learner (un)registration with a stream's acceptors.
struct LearnerJoinMsg final : Wire<LearnerJoinMsg> {
  static constexpr MsgType kType = MsgType::kLearnerJoin;
  StreamId stream = kInvalidStream;
  NodeId learner = net::kInvalidNode;

  LearnerJoinMsg() = default;
  LearnerJoinMsg(StreamId s, NodeId l) : stream(s), learner(l) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.learner);
  }
};

struct LearnerLeaveMsg final : Wire<LearnerLeaveMsg> {
  static constexpr MsgType kType = MsgType::kLearnerLeave;
  StreamId stream = kInvalidStream;
  NodeId learner = net::kInvalidNode;

  LearnerLeaveMsg() = default;
  LearnerLeaveMsg(StreamId s, NodeId l) : stream(s), learner(l) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.learner);
  }
};

/// Learner catch-up: send me decided instances in [from, to).
struct RecoverRequestMsg final : Wire<RecoverRequestMsg> {
  static constexpr MsgType kType = MsgType::kRecoverRequest;
  StreamId stream = kInvalidStream;
  InstanceId from = 0;
  InstanceId to = 0;

  RecoverRequestMsg() = default;
  RecoverRequestMsg(StreamId s, InstanceId f, InstanceId t) : stream(s), from(f), to(t) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.varint(m.from);
    io.varint(m.to);
  }
};

/// Chunk of decided instances. `trim_horizon` tells the learner the
/// oldest instance still available; `decided_watermark` is the highest
/// contiguously decided instance at the acceptor, so the learner knows
/// how far behind it still is.
struct RecoverReplyMsg final : Wire<RecoverReplyMsg> {
  static constexpr MsgType kType = MsgType::kRecoverReply;
  StreamId stream = kInvalidStream;
  InstanceId trim_horizon = 0;
  InstanceId decided_watermark = 0;
  /// Each entry shares the acceptor's stored proposal — a
  /// recover_chunk-sized catch-up reply adds no payload copies.
  std::vector<std::pair<InstanceId, ProposalPtr>> entries;

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.varint(m.trim_horizon);
    io.varint(m.decided_watermark);
    io.list(m.entries, [](auto& entry, auto& eio) {
      eio.varint(entry.first);
      eio.nested(entry.second);
    });
  }
};

/// Asks acceptors to discard log entries below `up_to`.
struct TrimRequestMsg final : Wire<TrimRequestMsg> {
  static constexpr MsgType kType = MsgType::kTrimRequest;
  StreamId stream = kInvalidStream;
  InstanceId up_to = 0;

  TrimRequestMsg() = default;
  TrimRequestMsg(StreamId s, InstanceId u) : stream(s), up_to(u) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.varint(m.up_to);
  }
};

/// Leader liveness beacon to acceptors (standby coordinators watch it).
struct CoordHeartbeatMsg final : Wire<CoordHeartbeatMsg> {
  static constexpr MsgType kType = MsgType::kCoordHeartbeat;
  StreamId stream = kInvalidStream;
  Ballot ballot;
  InstanceId next_instance = 0;

  CoordHeartbeatMsg() = default;
  CoordHeartbeatMsg(StreamId s, Ballot b, InstanceId n)
      : stream(s), ballot(b), next_instance(n) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.ballot.round);
    io.u32(m.ballot.leader);
    io.varint(m.next_instance);
  }
};

/// Learner -> coordinator: periodic position report. The coordinator
/// trims acceptor logs below the slowest learner (paper §VI: URingPaxos
/// "has several mechanisms built in to recover and trim Paxos acceptors
/// log and coordinate replica checkpoints").
struct LearnerReportMsg final : Wire<LearnerReportMsg> {
  static constexpr MsgType kType = MsgType::kLearnerReport;
  StreamId stream = kInvalidStream;
  NodeId learner = net::kInvalidNode;
  InstanceId next_instance = 0;

  LearnerReportMsg() = default;
  LearnerReportMsg(StreamId s, NodeId l, InstanceId n)
      : stream(s), learner(l), next_instance(n) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.stream);
    io.u32(m.learner);
    io.varint(m.next_instance);
  }
};

/// Registers all Paxos message decoders with the global codec.
void register_paxos_messages();

}  // namespace epx::paxos
