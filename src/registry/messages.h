// Wire messages of the configuration registry.
//
// The registry replaces ZooKeeper in the paper's deployment (§VI): a
// small store of versioned configuration entries (partition maps, stream
// sets) with prefix watches that push change notifications to clients.
#pragma once

#include "net/message.h"
#include "obs/telemetry.h"

namespace epx::registry {

using net::Message;
using net::MsgType;
using net::NodeId;
using net::Reader;
using net::Writer;

struct RegistrySetMsg final : Message {
  std::string key;
  std::string value;

  RegistrySetMsg() = default;
  RegistrySetMsg(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}

  MsgType type() const override { return MsgType::kRegistrySet; }
  size_t body_size() const override {
    return Writer::bytes_size(key.size()) + Writer::bytes_size(value.size());
  }
  void encode(Writer& w) const override {
    w.bytes(key);
    w.bytes(value);
  }
  static std::shared_ptr<Message> decode(Reader& r);
};

struct RegistryGetMsg final : Message {
  uint64_t request_id = 0;
  std::string key;

  RegistryGetMsg() = default;
  RegistryGetMsg(uint64_t id, std::string k) : request_id(id), key(std::move(k)) {}

  MsgType type() const override { return MsgType::kRegistryGet; }
  size_t body_size() const override {
    return Writer::varint_size(request_id) + Writer::bytes_size(key.size());
  }
  void encode(Writer& w) const override {
    w.varint(request_id);
    w.bytes(key);
  }
  static std::shared_ptr<Message> decode(Reader& r);
};

struct RegistryReplyMsg final : Message {
  uint64_t request_id = 0;
  std::string key;
  std::string value;
  uint64_t version = 0;
  bool found = false;

  MsgType type() const override { return MsgType::kRegistryReply; }
  size_t body_size() const override {
    return Writer::varint_size(request_id) + Writer::bytes_size(key.size()) +
           Writer::bytes_size(value.size()) + Writer::varint_size(version) + 1;
  }
  void encode(Writer& w) const override {
    w.varint(request_id);
    w.bytes(key);
    w.bytes(value);
    w.varint(version);
    w.u8(found ? 1 : 0);
  }
  static std::shared_ptr<Message> decode(Reader& r);
};

struct RegistryWatchMsg final : Message {
  std::string prefix;
  NodeId watcher = net::kInvalidNode;

  RegistryWatchMsg() = default;
  RegistryWatchMsg(std::string p, NodeId w) : prefix(std::move(p)), watcher(w) {}

  MsgType type() const override { return MsgType::kRegistryWatch; }
  size_t body_size() const override {
    return Writer::bytes_size(prefix.size()) + sizeof(uint32_t);
  }
  void encode(Writer& w) const override {
    w.bytes(prefix);
    w.u32(watcher);
  }
  static std::shared_ptr<Message> decode(Reader& r);
};

struct RegistryEventMsg final : Message {
  std::string key;
  std::string value;
  uint64_t version = 0;

  RegistryEventMsg() = default;
  RegistryEventMsg(std::string k, std::string v, uint64_t ver)
      : key(std::move(k)), value(std::move(v)), version(ver) {}

  MsgType type() const override { return MsgType::kRegistryEvent; }
  size_t body_size() const override {
    return Writer::bytes_size(key.size()) + Writer::bytes_size(value.size()) +
           Writer::varint_size(version);
  }
  void encode(Writer& w) const override {
    w.bytes(key);
    w.bytes(value);
    w.varint(version);
  }
  static std::shared_ptr<Message> decode(Reader& r);
};

/// One node's telemetry scrape window, shipped by a TelemetryAgent to
/// the MonitorService through the simulated network — scraping costs
/// real sim bandwidth and CPU (DESIGN.md §16). The body is the
/// TelemetrySample verbatim: per point a length-prefixed canonical key,
/// the point kind, and the four value slots bit-cast to u64.
struct TelemetrySampleMsg final : Message {
  uint32_t node = 0;
  uint64_t seq = 0;
  int64_t window_start = 0;
  int64_t window_end = 0;
  std::vector<obs::TelemetryPoint> points;

  // Recycle the point buffer: together with acquire in scrape() this
  // keeps the steady-state scrape -> send -> ingest cycle free of heap
  // allocation (one sample per node per window, forever).
  ~TelemetrySampleMsg() override { obs::release_point_buffer(std::move(points)); }

  MsgType type() const override { return MsgType::kTelemetrySample; }
  size_t body_size() const override {
    size_t n = sizeof(uint32_t) + Writer::varint_size(seq) + 2 * sizeof(int64_t) +
               Writer::varint_size(points.size());
    for (const auto& p : points) {
      n += Writer::bytes_size(p.key->size()) + 1 + 4 * sizeof(double);
    }
    return n;
  }
  void encode(Writer& w) const override {
    w.u32(node);
    w.varint(seq);
    w.i64(window_start);
    w.i64(window_end);
    w.varint(points.size());
    for (const auto& p : points) {
      w.bytes(*p.key);
      w.u8(static_cast<uint8_t>(p.kind));
      w.f64(p.v0);
      w.f64(p.v1);
      w.f64(p.v2);
      w.f64(p.v3);
    }
  }
  static std::shared_ptr<Message> decode(Reader& r);
};

void register_registry_messages();

}  // namespace epx::registry
