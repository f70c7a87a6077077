// Message framework shared by every protocol in the library.
//
// A Message is an immutable, reference-counted value exchanged between
// processes. Each concrete type reports its wire size (for the network's
// bandwidth model) and can encode/decode itself through the binary codec;
// the protocol messages derive all three from one field list through
// net::Wire (net/wire.h). The decode path is driven by a per-type
// registry so codec round-trips can be tested uniformly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/buffer.h"
#include "net/pool.h"
#include "util/status.h"

namespace epx::net {

/// Identifies a simulated process (acceptor, coordinator, replica,
/// client, registry server...). Assigned by the harness.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffff;

/// Every wire message type in the system, across all protocols.
enum class MsgType : uint16_t {
  // Paxos / streams
  kClientPropose = 1,
  kProposeReject,
  kPhase1a,
  kPhase1b,
  kAccept,        // phase 2a travelling along the acceptor ring
  kDecision = 7,  // decided instance fanned out to learners (tag 6 retired:
                  // kAccepted, the non-ring phase-2b fallback, was never built)
  kLearnerJoin,  // learner (un)registers with a stream's acceptors
  kLearnerLeave,
  kRecoverRequest,  // learner catch-up
  kRecoverReply,
  kTrimRequest,
  kCoordHeartbeat,
  kLearnerReport,  // learner position report driving log trimming

  // Registry (ZooKeeper substitute)
  kRegistrySet = 100,
  kRegistryGet,
  kRegistryReply,
  kRegistryWatch,
  kRegistryEvent,

  // Key/value store (tag 200 retired: kKvRequest — clients propose through
  // the multicast path via kClientPropose, a direct-request path never existed)
  kKvReply = 201,
  kKvSignal,  // multi-partition execution signals
  kSnapshotRequest,
  kSnapshotReply,

  // Telemetry plane (DESIGN.md §16)
  kTelemetrySample = 300,  // one node's scrape window, agent -> monitor
};

const char* msg_type_name(MsgType type);

/// Fixed overhead charged per message on the wire (type, src, dst,
/// length, checksum) — mirrors a small TCP/framing header.
inline constexpr size_t kEnvelopeBytes = 24;

class Message {
 public:
  virtual ~Message() = default;
  virtual MsgType type() const = 0;

  /// Size of the encoded body in bytes. Used by the bandwidth model;
  /// must match what encode() produces (net::Wire guarantees it).
  virtual size_t body_size() const = 0;

  /// Serialises the body into `w`.
  virtual void encode(Writer& w) const = 0;

  /// Total wire footprint including framing.
  size_t wire_size() const { return kEnvelopeBytes + body_size(); }

  /// Short human-readable rendering for logs.
  virtual std::string debug_string() const { return msg_type_name(type()); }
};

using MessagePtr = std::shared_ptr<const Message>;

/// Constructs a shared immutable message in one call. Envelope storage
/// (control block + object) is drawn from the EnvelopePool, so steady-
/// state sends allocate nothing.
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::allocate_shared<const T>(PoolAllocator<const T>(),
                                       std::forward<Args>(args)...);
}

/// Pooled construction of a message that is filled in field-by-field
/// before being sent (the build-then-freeze idiom of the protocol code).
template <typename T, typename... Args>
std::shared_ptr<T> make_mutable_message(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>(), std::forward<Args>(args)...);
}

/// Registry of decode functions, keyed by MsgType. Modules register
/// their messages once (see register_all_messages in each module);
/// decode() rebuilds a message from bytes for codec tests and any
/// byte-level transport.
class MessageCodec {
 public:
  using Decoder = std::function<std::shared_ptr<Message>(Reader&)>;

  static MessageCodec& instance();

  void register_type(MsgType type, Decoder decoder);
  bool has(MsgType type) const;

  /// Encodes `m` with a type tag prefix.
  std::vector<uint8_t> encode(const Message& m) const;

  /// Decodes a buffer produced by encode(). Returns nullptr + status on
  /// malformed input or unknown type.
  Result<MessagePtr> decode(std::string_view bytes) const;

 private:
  MessageCodec() = default;
  std::unordered_map<uint16_t, Decoder> decoders_;
};

}  // namespace epx::net
