// Byte-stream reader/writer helpers shared by the three frame codecs.
#pragma once

#include <array>
#include <span>
#include <stdexcept>

#include "common/types.hpp"

namespace drmp::mac {

/// Sequential byte writer over a growing buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8_(u8 v) { out_.push_back(v); }
  void u16le(u16 v) { put_le16(out_, v); }
  void u32le(u32 v) { put_le32(out_, v); }
  // Byte-wise (the fields are MAC addresses): GCC 12 misreads a range
  // insert into a just-grown vector as an over-read.
  void bytes(std::span<const u8> b) {
    for (const u8 v : b) out_.push_back(v);
  }

 private:
  Bytes& out_;
};

/// Sequential byte reader with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(std::span<const u8> in) : in_(in) {}

  u8 u8_() { return in_[need(1)]; }
  u16 u16le() {
    const auto off = need(2);
    return get_le16(in_, off);
  }
  u32 u32le() {
    const auto off = need(4);
    return get_le32(in_, off);
  }
  Bytes bytes(std::size_t n) {
    const auto off = need(n);
    return Bytes(in_.begin() + static_cast<std::ptrdiff_t>(off),
                 in_.begin() + static_cast<std::ptrdiff_t>(off + n));
  }
  std::size_t remaining() const noexcept { return in_.size() - pos_; }
  std::size_t pos() const noexcept { return pos_; }

 private:
  std::size_t need(std::size_t n) {
    if (pos_ + n > in_.size()) throw std::out_of_range("frame truncated");
    const std::size_t off = pos_;
    pos_ += n;
    return off;
  }
  std::span<const u8> in_;
  std::size_t pos_ = 0;
};

/// A 48-bit IEEE 802 MAC address (used by WiFi; UWB swaps these for 1-byte
/// device ids at association, thesis §2.3.2.1 commonality #9).
struct MacAddr {
  std::array<u8, 6> b{};
  bool operator==(const MacAddr&) const = default;
  static MacAddr from_u64(u64 v) {
    MacAddr a;
    for (int i = 0; i < 6; ++i) a.b[i] = static_cast<u8>(v >> (8 * i));
    return a;
  }
  u64 to_u64() const {
    u64 v = 0;
    for (int i = 0; i < 6; ++i) v |= static_cast<u64>(b[i]) << (8 * i);
    return v;
  }
};

inline constexpr u64 kBroadcastMac = 0xFFFFFFFFFFFFull;

}  // namespace drmp::mac
