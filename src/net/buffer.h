// Binary wire codec: Writer appends, Reader consumes.
//
// Encoding rules: fixed-width little-endian integers for protocol fields
// where the size matters for bandwidth accounting, LEB128 varints for
// counts, and length-prefixed byte strings. Messages do not call these
// directly: each lists its fields once and net/wire.h derives sizing,
// encoding and decoding from that list, sizing without materialising
// bytes (Message::body_size runs on every simulated send).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace epx::net {

class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { append_le(&v, sizeof(v)); }
  void u32(uint32_t v) { append_le(&v, sizeof(v)); }
  void u64(uint64_t v) { append_le(&v, sizeof(v)); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// Grows capacity for `additional` more bytes in one step. Encoders
  /// that know their output size (Message::body_size) call this up
  /// front to avoid repeated vector regrowth — on the
  /// 32 KB-value codec path that is the difference between one
  /// allocation and a doubling cascade.
  void reserve(size_t additional) { buf_.reserve(buf_.size() + additional); }

  /// LEB128 unsigned varint.
  void varint(uint64_t v);

  /// Length-prefixed bytes.
  void bytes(std::string_view data);

  /// Length-prefixed run of `len` zero bytes (a synthetic payload).
  void zero_bytes(size_t len) {
    varint(len);
    buf_.resize(buf_.size() + len);
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

  /// Moves the encoded bytes out, leaving the writer empty.
  std::vector<uint8_t> take() { return std::move(buf_); }

  /// Wire size of a varint without writing it.
  static constexpr size_t varint_size(uint64_t v) {
    size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }
  /// Wire size of a length-prefixed byte string.
  static size_t bytes_size(size_t len) { return varint_size(len) + len; }

 private:
  void append_le(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);  // host is little-endian (x86/ARM LE)
  }
  std::vector<uint8_t> buf_;
};

/// Writer's u8/varint/bytes layout, appended to a std::string, for
/// encoders that size their output string up front (reserve first).
class StringWriter {
 public:
  explicit StringWriter(std::string& out) : out_(out) {}

  void u8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void varint(uint64_t v) {
    for (; v >= 0x80; v >>= 7) u8(static_cast<uint8_t>(v) | 0x80);
    u8(static_cast<uint8_t>(v));
  }
  void bytes(std::string_view data) {
    varint(data.size());
    out_.append(data);
  }

 private:
  std::string& out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  Reader(const uint8_t* data, size_t n)
      : data_(reinterpret_cast<const char*>(data), n) {}

  bool ok() const { return ok_; }
  /// Marks the input malformed (a decoder found an out-of-range value).
  void fail() { ok_ = false; }
  size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64();
  uint64_t varint();
  std::string bytes();
  /// Zero-copy variant of bytes(): a view into the underlying buffer,
  /// valid only while that buffer lives. Decoders that materialise their
  /// own storage use this to skip the intermediate std::string.
  std::string_view bytes_view();

  /// Status reflecting decode health.
  Status status() const {
    return ok_ ? Status::ok() : Status::corruption("truncated or malformed buffer");
  }

 private:
  bool take(void* out, size_t n);
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace epx::net
