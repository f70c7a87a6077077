// Wire messages of the configuration registry.
//
// The registry replaces ZooKeeper in the paper's deployment (§VI): a
// small store of versioned configuration entries (partition maps, stream
// sets) with prefix watches that push change notifications to clients.
#pragma once

#include "net/wire.h"
#include "obs/telemetry.h"

namespace epx::registry {

using net::MsgType;
using net::NodeId;
using net::Wire;

struct RegistrySetMsg final : Wire<RegistrySetMsg> {
  static constexpr MsgType kType = MsgType::kRegistrySet;
  std::string key;
  std::string value;

  RegistrySetMsg() = default;
  RegistrySetMsg(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}

  static void fields(auto& m, auto& io) {
    io.bytes(m.key);
    io.bytes(m.value);
  }
};

struct RegistryGetMsg final : Wire<RegistryGetMsg> {
  static constexpr MsgType kType = MsgType::kRegistryGet;
  uint64_t request_id = 0;
  std::string key;

  RegistryGetMsg() = default;
  RegistryGetMsg(uint64_t id, std::string k) : request_id(id), key(std::move(k)) {}

  static void fields(auto& m, auto& io) {
    io.varint(m.request_id);
    io.bytes(m.key);
  }
};

struct RegistryReplyMsg final : Wire<RegistryReplyMsg> {
  static constexpr MsgType kType = MsgType::kRegistryReply;
  uint64_t request_id = 0;
  std::string key;
  std::string value;
  uint64_t version = 0;
  bool found = false;

  static void fields(auto& m, auto& io) {
    io.varint(m.request_id);
    io.bytes(m.key);
    io.bytes(m.value);
    io.varint(m.version);
    io.u8(m.found);
  }
};

struct RegistryWatchMsg final : Wire<RegistryWatchMsg> {
  static constexpr MsgType kType = MsgType::kRegistryWatch;
  std::string prefix;
  NodeId watcher = net::kInvalidNode;

  RegistryWatchMsg() = default;
  RegistryWatchMsg(std::string p, NodeId w) : prefix(std::move(p)), watcher(w) {}

  static void fields(auto& m, auto& io) {
    io.bytes(m.prefix);
    io.u32(m.watcher);
  }
};

struct RegistryEventMsg final : Wire<RegistryEventMsg> {
  static constexpr MsgType kType = MsgType::kRegistryEvent;
  std::string key;
  std::string value;
  uint64_t version = 0;

  RegistryEventMsg() = default;
  RegistryEventMsg(std::string k, std::string v, uint64_t ver)
      : key(std::move(k)), value(std::move(v)), version(ver) {}

  static void fields(auto& m, auto& io) {
    io.bytes(m.key);
    io.bytes(m.value);
    io.varint(m.version);
  }
};

/// One node's telemetry scrape window, shipped by a TelemetryAgent to
/// the MonitorService through the simulated network — scraping costs
/// real sim bandwidth and CPU (DESIGN.md §16). The body is the
/// TelemetrySample verbatim: per point a length-prefixed canonical key,
/// the point kind, and the four value slots bit-cast to u64.
struct TelemetrySampleMsg final : Wire<TelemetrySampleMsg> {
  static constexpr MsgType kType = MsgType::kTelemetrySample;
  uint32_t node = 0;
  uint64_t seq = 0;
  int64_t window_start = 0;
  int64_t window_end = 0;
  std::vector<obs::TelemetryPoint> points;

  // Recycle the point buffer: together with acquire in scrape() this
  // keeps the steady-state scrape -> send -> ingest cycle free of heap
  // allocation (one sample per node per window, forever).
  ~TelemetrySampleMsg() override { obs::release_point_buffer(std::move(points)); }

  static void fields(auto& m, auto& io) {
    io.u32(m.node);
    io.varint(m.seq);
    io.i64(m.window_start);
    io.i64(m.window_end);
    io.list(m.points, [](auto& p, auto& pio) {
      pio.bytes(p.key, obs::intern_key);  // decoded keys are interned
      pio.enum8(p.kind, obs::PointKind::kTimer);  // the last kind
      pio.f64(p.v0);
      pio.f64(p.v1);
      pio.f64(p.v2);
      pio.f64(p.v3);
    });
  }
};

void register_registry_messages();

}  // namespace epx::registry
