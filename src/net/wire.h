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
// command's possibly synthetic payload, body for a SharedBody, list for
// a varint-counted vector, and nested for a struct (or a shared pointer
// to one) that has its own fields list.
//
// net::Wire<T> turns a struct with `kType` and `fields` into a Message.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/buffer.h"
#include "net/message.h"
#include "net/pool.h"

namespace epx::net {

using SharedBytes = std::shared_ptr<const std::string>;

/// The content of a length-prefixed byte field, left in the buffers it
/// came from until the message is encoded. Two forms:
///   - flat: one view into a shared buffer (a stored value, or the bytes
///     a decoder read);
///   - pair list: key/value pairs in the pairs layout (a varint count,
///     then each key and each value length-prefixed), each value a view
///     into a shared buffer.
/// The body holds a reference to every buffer it views, so it stays
/// valid after the store it was collected from overwrites or erases the
/// entries. Its size is known without writing, and it writes exactly the
/// bytes of an owned string with the same content.
///
/// A non-empty body lives in one envelope-pool block behind a single
/// pointer, so an empty body costs a message nothing beyond that pointer:
/// put, status and broadcast replies keep their 64-byte pool class.
/// Copies share the block; build a body, then share it.
class SharedBody {
 public:
  /// Empty flat content.
  SharedBody() = default;
  /// All of `*owned`; null is empty. The form a decoder produces, and
  /// implicit because an owned string is a body.
  SharedBody(SharedBytes owned) {
    if (owned) {
      const std::string_view bytes = *owned;
      *this = SharedBody(std::move(owned), bytes);
    }
  }
  /// `bytes`, which must lie inside `*owner`.
  SharedBody(SharedBytes owner, std::string_view bytes) : rep_(make_rep()) {
    rep_->owner = std::move(owner);
    rep_->bytes = bytes;
  }

  /// An empty pair list with room for `capacity` pairs; add() appends.
  static SharedBody pair_list(size_t capacity = 0) {
    SharedBody body;
    body.rep_ = make_rep();
    body.rep_->is_list = true;
    body.rep_->pairs.reserve(capacity);
    return body;
  }
  /// Appends a pair to a pair list; `value` must lie inside `*owner`.
  void add(std::string_view key, const SharedBytes& owner, std::string_view value) {
    rep_->pairs.push_back(Pair{std::string(key), owner, value});
    rep_->pair_bytes += Writer::bytes_size(key.size()) + Writer::bytes_size(value.size());
  }

  /// Length of the content, without the field's length prefix.
  size_t size() const {
    if (!rep_) return 0;
    return rep_->is_list ? Writer::varint_size(rep_->pairs.size()) + rep_->pair_bytes
                         : rep_->bytes.size();
  }
  /// The flat content; empty for a pair list.
  std::string_view flat() const { return rep_ ? rep_->bytes : std::string_view(); }
  size_t pair_count() const { return rep_ ? rep_->pairs.size() : 0; }

  /// The content copied into one string of exactly size() bytes.
  std::string str() const {
    if (!rep_ || !rep_->is_list) return std::string(flat());
    std::string out;
    out.reserve(size());
    StringWriter w(out);
    write_pairs(w);
    return out;
  }

  /// Writes the field: length prefix, then content.
  void write(Writer& out) const {
    if (!rep_ || !rep_->is_list) {
      out.bytes(flat());
      return;
    }
    out.varint(size());
    write_pairs(out);
  }

 private:
  struct Pair {
    std::string key;
    SharedBytes owner;  ///< keeps `value` alive
    std::string_view value;
  };
  struct Rep {
    SharedBytes owner;  ///< flat form: keeps `bytes` alive
    std::string_view bytes;
    std::vector<Pair, PoolAllocator<Pair>> pairs;
    size_t pair_bytes = 0;  ///< the pairs' share of size()
    bool is_list = false;
  };

  static std::shared_ptr<Rep> make_rep() {
    return std::allocate_shared<Rep>(PoolAllocator<Rep>());
  }

  /// The one writer of the pairs layout, over a Writer or a StringWriter.
  template <typename Out>
  void write_pairs(Out& out) const {
    out.varint(rep_->pairs.size());
    for (const Pair& p : rep_->pairs) {
      out.bytes(p.key);
      out.bytes(p.value);
    }
  }

  std::shared_ptr<Rep> rep_;  ///< null: empty flat content
};

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
  /// Sized from the body's cached length; written from its buffers.
  void body(const SharedBody& b) {
    if constexpr (std::is_same_v<Sink, ByteCounter>) {
      out_.zero_bytes(b.size());  // counts a length-prefixed run of that many bytes
    } else {
      b.write(out_);
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
  /// A decoded body owns its bytes (flat form); an empty one is null.
  void body(SharedBody& b) {
    const std::string_view view = in_.bytes_view();
    b = view.empty() ? SharedBody() : SharedBody(share(view));
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
