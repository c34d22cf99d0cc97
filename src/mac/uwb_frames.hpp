// IEEE 802.15.3 (UWB / high-rate WPAN) frame codec subset.
//
// MAC header (10 bytes, 802.15.3-2003 §7.2):
//   frame control (2) | PNID (2) | DestID (1) | SrcID (1) |
//   fragmentation control (3: MSDU number 9b, fragment number 7b,
//   last fragment number 7b, padded to 24 bits) | stream index (1)
// followed by a 2-byte HCS — "the exact same 16-bit CRC" as WiFi (thesis
// §2.3.2.1 #1) — then the body and a CRC-32 FCS.
//
// The 1-byte device ids replace the 6-byte MAC addresses at association
// (thesis §2.3.2.1 #9). Imm-ACK frames are header-only (§7.2.7).
#pragma once

#include <optional>

#include "common/types.hpp"
#include "mac/frame.hpp"

namespace drmp::mac::uwb {

inline constexpr std::size_t kHdrBytes = 10;
inline constexpr std::size_t kHcsBytes = 2;
inline constexpr std::size_t kFcsBytes = 4;
inline constexpr std::size_t kImmAckBytes = kHdrBytes + kHcsBytes;

enum class FrameType : u8 {
  Beacon = 0,
  ImmAck = 1,
  DlyAck = 2,
  Command = 3,
  Data = 4,
};

enum class AckPolicy : u8 { NoAck = 0, ImmAck = 1, DlyAck = 2 };

struct Header {
  FrameType type = FrameType::Data;
  bool sec = false;
  AckPolicy ack_policy = AckPolicy::NoAck;
  bool retry = false;
  bool more_data = false;
  u16 pnid = 0;     ///< Piconet identifier.
  u8 dest_id = 0;   ///< 1-byte device id.
  u8 src_id = 0;
  u16 msdu_num = 0;      ///< 9-bit MSDU number.
  u8 frag_num = 0;       ///< 7-bit fragment number.
  u8 last_frag_num = 0;  ///< 7-bit last-fragment number.
  u8 stream_index = 0;

  Bytes encode() const;  ///< 10 bytes, no HCS.
  static Header decode(std::span<const u8> hdr10);
  bool operator==(const Header&) const = default;
};

/// Builds a data frame: header + HCS + body + FCS.
Bytes build_data_frame(const Header& hdr, std::span<const u8> body);

/// Builds an Imm-ACK (header + HCS only).
Bytes build_imm_ack(u16 pnid, u8 dest_id, u8 src_id);

struct ParsedFrame {
  Header hdr;
  Bytes body;
  bool hcs_ok = false;
  bool fcs_ok = false;  ///< Always true for header-only frames.
};

std::optional<ParsedFrame> parse_frame(std::span<const u8> frame);

/// A frame's header, HCS verdict and body length (0 for header-only frames).
struct FrameHeader {
  Header hdr;
  std::size_t body_len = 0;
  bool hcs_ok = false;
};

/// parse_frame without the body copy and the FCS check, for callers that
/// need neither; nullopt exactly when parse_frame is.
std::optional<FrameHeader> parse_header(std::span<const u8> frame);

}  // namespace drmp::mac::uwb
