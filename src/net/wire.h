// One layout per wire message.
//
// A wire struct lists its fields once, in wire order, in a static
// `fields(m, io)` function. Running that list against an archive `io`
// is the only way the struct is sized, encoded or decoded:
//
//   Encoder<ByteCounter>  counts the bytes (body_size, on every send)
//   Encoder<Writer>       appends them
//   Decoder               reads them back, failing the Reader on
//                         malformed input
//
// Sizing and encoding run the same Encoder code over sinks with the same
// primitives, so body_size() equals the encoded length by construction.
// Every archive offers the same ops: u8/u32/i64/f64/varint/bytes as in
// Writer, enum8 for a one-byte enum with a known maximum, payload for a
// command's possibly synthetic payload, list for a varint-counted
// vector, and nested for a struct (or a shared pointer to one) that has
// its own fields list.
//
// net::Wire<T> turns a struct with `kType` and `fields` into a Message.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/buffer.h"
#include "net/message.h"
#include "net/pool.h"

namespace epx::net {

using SharedBytes = std::shared_ptr<const std::string>;

/// Writer's primitives, counting bytes instead of appending them.
class ByteCounter {
 public:
  void u8(uint8_t) { n_ += sizeof(uint8_t); }
  void u32(uint32_t) { n_ += sizeof(uint32_t); }
  void i64(int64_t) { n_ += sizeof(int64_t); }
  void f64(double) { n_ += sizeof(double); }
  void varint(uint64_t v) { n_ += Writer::varint_size(v); }
  void bytes(std::string_view data) { n_ += Writer::bytes_size(data.size()); }
  void zero_bytes(size_t len) { n_ += Writer::bytes_size(len); }

  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

/// The write side of a fields list, over a Writer or a ByteCounter.
template <typename Sink>
class Encoder {
 public:
  explicit Encoder(Sink& out) : out_(out) {}

  void u8(uint8_t v) { out_.u8(v); }
  void u32(uint32_t v) { out_.u32(v); }
  void i64(int64_t v) { out_.i64(v); }
  void f64(double v) { out_.f64(v); }
  void varint(uint64_t v) { out_.varint(v); }
  void bytes(std::string_view data) { out_.bytes(data); }
  /// A shared string; null encodes as empty. `make` is only for decoding.
  template <typename... Make>
  void bytes(const SharedBytes& data, Make&&...) {
    out_.bytes(data ? std::string_view(*data) : std::string_view());
  }
  /// A payload held by value, or synthetic (null, `size` zero bytes).
  void payload(const SharedBytes& data, uint64_t size) {
    if (data) {
      out_.bytes(*data);
    } else {
      out_.zero_bytes(size);
    }
  }
  template <typename E>
  void enum8(E v, E /*max*/) {
    out_.u8(static_cast<uint8_t>(v));
  }
  template <typename V, typename Each>
  void list(const V& items, Each each) {
    out_.varint(items.size());
    for (const auto& item : items) each(item, *this);
  }
  template <typename V>
  void list(const V& items) {
    list(items, [](const auto& item, auto& io) { io.nested(item); });
  }
  template <typename T>
  void nested(const T& v) {
    T::fields(v, *this);
  }
  template <typename T>
  void nested(const std::shared_ptr<const T>& p) {
    T::fields(*p, *this);
  }

 private:
  Sink& out_;
};

/// The read side of a fields list. Malformed input fails the Reader
/// (the codec then returns a corruption Status); nothing here throws.
class Decoder {
 public:
  explicit Decoder(Reader& in) : in_(in) {}

  void u8(uint8_t& v) { v = in_.u8(); }
  void u8(bool& v) { v = in_.u8() != 0; }
  void u32(uint32_t& v) { v = in_.u32(); }
  void i64(int64_t& v) { v = in_.i64(); }
  void f64(double& v) { v = in_.f64(); }
  template <typename T>
  void varint(T& v) {
    v = static_cast<T>(in_.varint());
  }
  void bytes(std::string& v) { v = in_.bytes(); }
  void bytes(SharedBytes& v) { v = share(in_.bytes_view()); }
  /// `make` builds the shared string (e.g. a key interner).
  template <typename Make>
  void bytes(SharedBytes& v, Make&& make) {
    v = make(in_.bytes());
  }
  void payload(SharedBytes& data, uint64_t& size) {
    const std::string_view view = in_.bytes_view();
    size = view.size();
    data = share(view);
  }
  /// Fails the reader on a byte above `max`.
  template <typename E>
  void enum8(E& v, E max) {
    const uint8_t raw = in_.u8();
    if (raw > static_cast<uint8_t>(max)) {
      in_.fail();
      return;
    }
    v = static_cast<E>(raw);
  }
  /// Every element takes at least one byte, so a count above what is
  /// left fails before anything is reserved.
  template <typename V, typename Each>
  void list(V& items, Each each) {
    const uint64_t n = in_.varint();
    if (n > in_.remaining()) {
      in_.fail();
      return;
    }
    items.reserve(n);
    for (uint64_t i = 0; i < n && in_.ok(); ++i) each(items.emplace_back(), *this);
  }
  template <typename V>
  void list(V& items) {
    list(items, [](auto& item, auto& io) { io.nested(item); });
  }
  template <typename T>
  void nested(T& v) {
    T::fields(v, *this);
  }
  /// Decodes into fresh pool-backed storage.
  template <typename T>
  void nested(std::shared_ptr<const T>& p) {
    auto fresh = std::allocate_shared<T>(PoolAllocator<T>());
    T::fields(*fresh, *this);
    p = std::move(fresh);
  }

 private:
  // One copy into the string's storage; control block and string header
  // come from the envelope pool.
  static SharedBytes share(std::string_view view) {
    return std::allocate_shared<const std::string>(PoolAllocator<const std::string>(),
                                                   view);
  }

  Reader& in_;
};

template <typename T>
size_t encoded_size(const T& v) {
  ByteCounter n;
  Encoder<ByteCounter> io(n);
  T::fields(v, io);
  return n.size();
}

template <typename T>
void encode_fields(const T& v, Writer& w) {
  Encoder<Writer> io(w);
  T::fields(v, io);
}

template <typename T>
void decode_fields(T& v, Reader& r) {
  Decoder io(r);
  T::fields(v, io);
}

/// A Message whose type, size, encoding and decoding all come from
/// T::kType and T::fields.
template <typename T>
class Wire : public Message {
 public:
  MsgType type() const final { return T::kType; }
  size_t body_size() const final { return encoded_size(self()); }
  void encode(Writer& w) const final { encode_fields(self(), w); }

  /// The decoder MessageCodec::register_type takes.
  static std::shared_ptr<Message> decode(Reader& r) {
    auto m = make_mutable_message<T>();
    decode_fields(*m, r);
    return m;
  }

 private:
  const T& self() const { return static_cast<const T&>(*this); }
};

}  // namespace epx::net
