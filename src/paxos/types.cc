#include "paxos/types.h"

namespace epx::paxos {

using net::Reader;
using net::Writer;

size_t Command::encoded_size() const {
  size_t n = 1;  // kind
  n += Writer::varint_size(id);
  n += sizeof(uint32_t);  // client
  n += Writer::varint_size(group);
  n += Writer::varint_size(target_stream);
  n += Writer::bytes_size(payload_bytes());
  return n;
}

void Command::encode(Writer& w) const {
  w.u8(static_cast<uint8_t>(kind));
  w.varint(id);
  w.u32(client);
  w.varint(group);
  w.varint(target_stream);
  if (payload) {
    w.bytes(*payload);
  } else {
    // Synthetic payload: materialise zeros so decode round-trips and the
    // byte count matches encoded_size().
    w.bytes(std::string(payload_size, '\0'));
  }
}

Command Command::decode(Reader& r) {
  Command c;
  c.kind = static_cast<CommandKind>(r.u8());
  c.id = r.varint();
  c.client = r.u32();
  c.group = static_cast<GroupId>(r.varint());
  c.target_stream = static_cast<StreamId>(r.varint());
  // Build the payload string in place from a view of the wire buffer:
  // one copy into the string's storage, with the shared_ptr control
  // block + string header drawn from the envelope pool.
  const std::string_view data = r.bytes_view();
  c.payload_size = data.size();
  c.payload = std::allocate_shared<const std::string>(
      net::PoolAllocator<const std::string>(), data);
  return c;
}

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

size_t Proposal::encoded_size() const {
  size_t n = Writer::varint_size(commands.size());
  for (const auto& c : commands) n += c.encoded_size();
  n += Writer::varint_size(skip_slots);
  n += Writer::varint_size(first_slot);
  return n;
}

void Proposal::encode(Writer& w) const {
  w.varint(commands.size());
  for (const auto& c : commands) c.encode(w);
  w.varint(skip_slots);
  w.varint(first_slot);
}

namespace {
// Single authority for the Proposal wire layout (command vector, then
// skip_slots, then first_slot): Proposal::decode and decode_proposal
// both read through here so the field order cannot drift between them.
void decode_proposal_into(Proposal& p, Reader& r) {
  const uint64_t n = r.varint();
  p.commands.reserve(n);
  for (uint64_t i = 0; i < n && r.ok(); ++i) p.commands.push_back(Command::decode(r));
  p.skip_slots = r.varint();
  p.first_slot = r.varint();
}
}  // namespace

Proposal Proposal::decode(Reader& r) {
  Proposal p;
  decode_proposal_into(p, r);
  return p;
}

ProposalPtr make_proposal(Proposal&& p) {
  return std::allocate_shared<const Proposal>(net::PoolAllocator<const Proposal>(),
                                              std::move(p));
}

const ProposalPtr& empty_proposal() {
  static const ProposalPtr kEmpty = std::make_shared<const Proposal>();
  return kEmpty;
}

ProposalPtr decode_proposal(Reader& r) {
  auto p = std::allocate_shared<Proposal>(net::PoolAllocator<Proposal>());
  decode_proposal_into(*p, r);
  return p;
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
