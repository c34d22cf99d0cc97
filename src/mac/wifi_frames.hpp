// IEEE 802.11 (WiFi) frame codec — the demonstrative subset the thesis models
// (Ch. 5 simulates WiFi transmission and reception).
//
// Layout of a data MPDU as the DRMP processes it:
//   [24 B MAC header][2 B HCS][body][4 B FCS]
//
// NOTE on the HCS: baseline 802.11 carries its 16-bit CRC in the PLCP (PHY)
// header, but the thesis treats the Header Error Check as a MAC function
// shared between WiFi and UWB ("for WiFi and UWB, it is the exact same 16-bit
// CRC", §2.3.2.1 #1), so the codec follows the thesis and places a
// CRC-16-CCITT HCS after the MAC header. The FCS is the standard CRC-32 over
// everything before it.
#pragma once

#include <optional>

#include "common/types.hpp"
#include "mac/frame.hpp"
#include "mac/protocol.hpp"

namespace drmp::mac::wifi {

inline constexpr std::size_t kHdrBytes = 24;
inline constexpr std::size_t kHcsBytes = 2;
inline constexpr std::size_t kFcsBytes = 4;
inline constexpr std::size_t kAckBytes = 14;  // fc(2) dur(2) ra(6) fcs(4).
inline constexpr std::size_t kCtsBytes = 14;  // Same layout as ACK.
inline constexpr std::size_t kRtsBytes = 20;  // fc(2) dur(2) ra(6) ta(6) fcs(4).
inline constexpr std::size_t kCfEndBytes = 20;  // fc(2) dur(2) ra(6) bssid(6) fcs(4).
inline constexpr std::size_t kMaxMpduBytes = 2346;

enum class FrameType : u8 { Management = 0, Control = 1, Data = 2 };

enum class Subtype : u8 {
  Data = 0,
  // PCF data subtypes (§2.3.2.1 #5 polling, #11 piggybacked ACKs): the point
  // coordinator's poll can carry the CF-Ack for the previous uplink data.
  Null = 4,          // data subtype 4: no data (polled station, empty queue)
  CfPoll = 6,        // data subtype 6: CF-Poll (no data)
  CfAckCfPoll = 7,   // data subtype 7: CF-Ack + CF-Poll
  Beacon = 8,        // management subtype 8
  Rts = 11,          // control subtype 11
  Cts = 12,          // control subtype 12
  Ack = 13,          // control subtype 13
  CfEnd = 14,        // control subtype 14: end of contention-free period
  CfEndAck = 15,     // control subtype 15: CF-End + CF-Ack
};

struct FrameControl {
  FrameType type = FrameType::Data;
  Subtype subtype = Subtype::Data;
  bool to_ds = false;
  bool from_ds = false;
  bool more_frag = false;
  bool retry = false;
  bool pwr_mgmt = false;
  bool more_data = false;
  bool protected_frame = false;

  u16 encode() const;
  static FrameControl decode(u16 v);
  bool operator==(const FrameControl&) const = default;
};

struct DataHeader {
  FrameControl fc;
  u16 duration_us = 0;
  MacAddr addr1;  ///< Receiver.
  MacAddr addr2;  ///< Transmitter.
  MacAddr addr3;  ///< BSSID / destination.
  u16 seq_num = 0;  ///< 12-bit sequence number.
  u8 frag_num = 0;  ///< 4-bit fragment number.

  Bytes encode() const;  ///< 24 bytes, no HCS.
  static DataHeader decode(std::span<const u8> hdr24);
  bool operator==(const DataHeader&) const = default;
};

/// Builds a complete data MPDU: header + HCS + body + FCS.
Bytes build_data_mpdu(const DataHeader& hdr, std::span<const u8> body);

/// Builds an ACK control frame addressed to `ra`.
Bytes build_ack(const MacAddr& ra, u16 duration_us = 0);

/// Builds an RTS control frame: the optional handshake unique to WiFi among
/// the thesis's three protocols ("A Request-to-send/Clear-to-send handshake
/// option is only present in WiFi", §2.3.2.2 #10). `ta` is the transmitter
/// (this station); `duration_us` reserves the medium (NAV).
Bytes build_rts(const MacAddr& ra, const MacAddr& ta, u16 duration_us);

/// Builds a CTS control frame addressed back to the RTS transmitter.
Bytes build_cts(const MacAddr& ra, u16 duration_us = 0);

/// 802.11 duration arithmetic for a CTS responder: the RTS reservation
/// minus the SIFS gap and the CTS's own air time (floored at 0). This is
/// the field a hidden station's NAV arms from — every responder (device
/// Event Handler, scripted AP) must announce the same remainder.
u16 cts_duration_from_rts(u16 rts_duration_us, const ProtocolTiming& t);

/// Air time of one 14-byte ACK/CTS control frame at the protocol line rate.
/// The single source for every place that must agree on it by construction:
/// the chained Duration fields of a fragment burst, the EIFS figure
/// (SIFS + this + DIFS) and the CTS/ACK duration remainders.
inline double ack_air_us(const ProtocolTiming& t) {
  return static_cast<double>(kAckBytes) * 8.0 / t.line_rate_bps * 1e6;
}

/// 802.11 duration arithmetic for the ACK of a fragment with More Fragments
/// set (§9.1.4): the received frame's Duration covered SIFS + this ACK +
/// the rest of the burst; the ACK re-announces the remainder (minus one SIFS
/// and its own air time) so the NAV chains through the SIFS-spaced burst at
/// stations that hear only the receiver. Same arithmetic as the CTS
/// remainder — an ACK and a CTS share the 14-byte layout.
inline u16 ack_duration_from_data(u16 data_duration_us, const ProtocolTiming& t) {
  return cts_duration_from_rts(data_duration_us, t);
}

/// Builds a CF-End (or CF-End+CF-Ack) control frame closing a contention-
/// free period (PCF, §2.3.2.1 #5/#8). `ra` is broadcast in real 802.11.
Bytes build_cf_end(const MacAddr& ra, const MacAddr& bssid, bool with_ack);

/// Beacon body (§2.3.2.1 #13 "WiFi and UWB ... use beacon frames to
/// synchronize themselves" and #15 passive scanning): TSF timestamp plus the
/// beacon interval — the subset the scanning/sync machinery needs.
struct BeaconBody {
  u64 timestamp_us = 0;
  u16 interval_us = 0;

  Bytes encode() const;
  static std::optional<BeaconBody> decode(std::span<const u8> body);
  bool operator==(const BeaconBody&) const = default;
};

/// Builds a broadcast beacon management frame from `bssid`.
Bytes build_beacon(const MacAddr& bssid, u16 seq, const BeaconBody& body);

/// Parsed control frame (ACK / CTS / RTS).
struct ParsedCtl {
  FrameControl fc;
  u16 duration_us = 0;
  MacAddr ra;  ///< Receiver address.
  MacAddr ta;  ///< Transmitter address (RTS only; zero otherwise).
  bool fcs_ok = false;
};

/// Parses an ACK/CTS/RTS control frame; nullopt if the size/type does not
/// match any control layout.
std::optional<ParsedCtl> parse_control(std::span<const u8> frame);
/// parse_control without the FCS check (fcs_ok stays false), for callers
/// that take the verdict from elsewhere; nullopt exactly when it is.
std::optional<ParsedCtl> decode_control(std::span<const u8> frame);

struct ParsedMpdu {
  DataHeader hdr;
  Bytes body;
  bool hcs_ok = false;
  bool fcs_ok = false;
};

/// Parses and validates a data MPDU; returns nullopt if structurally invalid
/// (too short). CRC failures are reported via the flags.
std::optional<ParsedMpdu> parse_data_mpdu(std::span<const u8> mpdu);

/// A data MPDU's header, HCS verdict and body length.
struct MpduHeader {
  DataHeader hdr;
  std::size_t body_len = 0;
  bool hcs_ok = false;
};

/// parse_data_mpdu without the body copy and the FCS check, for callers
/// that need neither; nullopt exactly when parse_data_mpdu is.
std::optional<MpduHeader> parse_mpdu_header(std::span<const u8> mpdu);

/// True if `frame` is an ACK control frame with a valid FCS.
bool is_ack(std::span<const u8> frame, const MacAddr& expected_ra);

}  // namespace drmp::mac::wifi
