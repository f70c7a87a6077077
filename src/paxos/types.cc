#include "paxos/types.h"

namespace epx::paxos {

std::string Command::debug_string() const {
  switch (kind) {
    case CommandKind::kApp:
      return "app(id=" + std::to_string(id) + "," + std::to_string(payload_bytes()) + "B)";
    case CommandKind::kSubscribe:
      return "subscribe(G" + std::to_string(group) + ",S" + std::to_string(target_stream) + ")";
    case CommandKind::kUnsubscribe:
      return "unsubscribe(G" + std::to_string(group) + ",S" + std::to_string(target_stream) + ")";
    case CommandKind::kPrepareHint:
      return "prepare(G" + std::to_string(group) + ",S" + std::to_string(target_stream) + ")";
  }
  return "?";
}

ProposalPtr make_proposal(Proposal&& p) {
  return std::allocate_shared<const Proposal>(net::PoolAllocator<const Proposal>(),
                                              std::move(p));
}

const ProposalPtr& empty_proposal() {
  static const ProposalPtr kEmpty = std::make_shared<const Proposal>();
  return kEmpty;
}

namespace {
Command make_control(CommandKind kind, uint64_t id, GroupId group, StreamId stream) {
  Command c;
  c.kind = kind;
  c.id = id;
  c.group = group;
  c.target_stream = stream;
  return c;
}
}  // namespace

Command make_subscribe(uint64_t id, GroupId group, StreamId stream) {
  return make_control(CommandKind::kSubscribe, id, group, stream);
}
Command make_unsubscribe(uint64_t id, GroupId group, StreamId stream) {
  return make_control(CommandKind::kUnsubscribe, id, group, stream);
}
Command make_prepare_hint(uint64_t id, GroupId group, StreamId stream) {
  return make_control(CommandKind::kPrepareHint, id, group, stream);
}

}  // namespace epx::paxos
