// Minimal binary serialization used on the wire and in the on-disk log.
//
// The paper uses Google Protocol Buffers; this codec is the offline
// substitute (see DESIGN.md). It encodes integers little-endian (fixed or
// varint) and byte strings with a varint length prefix, so per-message cost
// scales with payload size the same way a protobuf encoding would.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/types.h"

namespace crsm {

// The fixed-width integer paths memcpy host-order bytes straight onto the
// wire, so the documented little-endian assumption must hold at compile
// time. A big-endian port needs byte-swap fallbacks in u32/u64 (and the
// matching decoders) before this assert may be relaxed.
static_assert(std::endian::native == std::endian::little,
              "codec.h assumes a little-endian host; add byte-swapping to "
              "Encoder/Decoder u32/u64 before porting to big-endian");

// Thrown when decoding malformed or truncated input.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

// Bytes var() writes for `v`.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// Grows `out` so `n` more bytes fit without another reallocation, keeping
// geometric growth when many encodings append to one buffer.
inline void reserve_more(std::string* out, std::size_t n) {
  const std::size_t need = out->size() + n;
  if (need > out->capacity()) out->reserve(std::max(need, 2 * out->capacity()));
}

// Appends primitive values to a byte buffer.
class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(std::string* out) : external_(out) {}

  void u8(std::uint8_t v) { buf().push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    char b[4];
    std::memcpy(b, &v, 4);  // little-endian hosts only (x86-64/aarch64)
    buf().append(b, 4);
  }

  void u64(std::uint64_t v) {
    char b[8];
    std::memcpy(b, &v, 8);
    buf().append(b, 8);
  }

  // LEB128 unsigned varint.
  void var(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  void bytes(std::string_view s) {
    var(s.size());
    buf().append(s.data(), s.size());
  }

  void timestamp(const Timestamp& ts) {
    u64(ts.ticks);
    u32(ts.origin);
  }

  [[nodiscard]] const std::string& str() const { return external_ ? *external_ : owned_; }
  [[nodiscard]] std::string take() { return std::move(owned_); }

 private:
  std::string& buf() { return external_ ? *external_ : owned_; }

  std::string owned_;
  std::string* external_ = nullptr;
};

// Reads primitive values back; throws CodecError on truncation or overflow.
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(in_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, in_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, in_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::uint64_t var() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift > 63) throw CodecError("varint overflow");
      std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  // Zero-copy variant: the returned view borrows the decoder's input and is
  // only valid while that buffer is.
  [[nodiscard]] std::string_view bytes_view() {
    std::uint64_t n = var();
    need(n);
    std::string_view s = in_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::string bytes() { return std::string(bytes_view()); }

  [[nodiscard]] Timestamp timestamp() {
    Timestamp ts;
    ts.ticks = u64();
    ts.origin = u32();
    return ts;
  }

  [[nodiscard]] bool done() const { return pos_ == in_.size(); }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }

 private:
  void need(std::uint64_t n) const {
    // Compare against the remaining length rather than `pos_ + n`: an
    // adversarial varint length near UINT64_MAX would wrap the addition and
    // slip truncated input past the bounds check.
    if (n > in_.size() - pos_) throw CodecError("truncated input");
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

}  // namespace crsm
