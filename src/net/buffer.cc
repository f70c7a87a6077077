#include "net/buffer.h"

namespace epx::net {

void Writer::varint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Writer::bytes(std::string_view data) {
  varint(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

bool Reader::take(void* out, size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

uint8_t Reader::u8() {
  uint8_t v = 0;
  take(&v, sizeof(v));
  return v;
}

uint16_t Reader::u16() {
  uint16_t v = 0;
  take(&v, sizeof(v));
  return v;
}

uint32_t Reader::u32() {
  uint32_t v = 0;
  take(&v, sizeof(v));
  return v;
}

uint64_t Reader::u64() {
  uint64_t v = 0;
  take(&v, sizeof(v));
  return v;
}

double Reader::f64() {
  uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t Reader::varint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift > 63) {
      ok_ = false;
      return 0;
    }
    const uint8_t byte = u8();
    if (!ok_) return 0;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::string Reader::bytes() {
  const uint64_t len = varint();
  if (!ok_ || remaining() < len) {
    ok_ = false;
    return {};
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

std::string_view Reader::bytes_view() {
  const uint64_t len = varint();
  if (!ok_ || remaining() < len) {
    ok_ = false;
    return {};
  }
  const std::string_view out = data_.substr(pos_, len);
  pos_ += len;
  return out;
}

}  // namespace epx::net
