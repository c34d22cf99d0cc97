#include "mac/wifi_frames.hpp"

#include "crypto/crc.hpp"

namespace drmp::mac::wifi {

u16 FrameControl::encode() const {
  u16 v = 0;
  v |= static_cast<u16>(static_cast<u8>(type) & 0x3) << 2;
  v |= static_cast<u16>(static_cast<u8>(subtype) & 0xF) << 4;
  if (to_ds) v |= 1u << 8;
  if (from_ds) v |= 1u << 9;
  if (more_frag) v |= 1u << 10;
  if (retry) v |= 1u << 11;
  if (pwr_mgmt) v |= 1u << 12;
  if (more_data) v |= 1u << 13;
  if (protected_frame) v |= 1u << 14;
  return v;
}

FrameControl FrameControl::decode(u16 v) {
  FrameControl fc;
  fc.type = static_cast<FrameType>((v >> 2) & 0x3);
  fc.subtype = static_cast<Subtype>((v >> 4) & 0xF);
  fc.to_ds = (v >> 8) & 1;
  fc.from_ds = (v >> 9) & 1;
  fc.more_frag = (v >> 10) & 1;
  fc.retry = (v >> 11) & 1;
  fc.pwr_mgmt = (v >> 12) & 1;
  fc.more_data = (v >> 13) & 1;
  fc.protected_frame = (v >> 14) & 1;
  return fc;
}

Bytes DataHeader::encode() const {
  Bytes out;
  out.reserve(kHdrBytes);
  ByteWriter w(out);
  w.u16le(fc.encode());
  w.u16le(duration_us);
  w.bytes(addr1.b);
  w.bytes(addr2.b);
  w.bytes(addr3.b);
  w.u16le(static_cast<u16>((seq_num << 4) | (frag_num & 0xF)));
  return out;
}

DataHeader DataHeader::decode(std::span<const u8> hdr24) {
  ByteReader r(hdr24);
  DataHeader h;
  h.fc = FrameControl::decode(r.u16le());
  h.duration_us = r.u16le();
  auto a1 = r.bytes(6), a2 = r.bytes(6), a3 = r.bytes(6);
  std::copy(a1.begin(), a1.end(), h.addr1.b.begin());
  std::copy(a2.begin(), a2.end(), h.addr2.b.begin());
  std::copy(a3.begin(), a3.end(), h.addr3.b.begin());
  const u16 sc = r.u16le();
  h.seq_num = static_cast<u16>(sc >> 4);
  h.frag_num = static_cast<u8>(sc & 0xF);
  return h;
}

Bytes build_data_mpdu(const DataHeader& hdr, std::span<const u8> body) {
  Bytes out = hdr.encode();
  const u16 hcs = crypto::Crc16Ccitt::compute(out);
  put_le16(out, hcs);
  out.insert(out.end(), body.begin(), body.end());
  const u32 fcs = crypto::Crc32::compute(out);
  put_le32(out, fcs);
  return out;
}

Bytes build_ack(const MacAddr& ra, u16 duration_us) {
  Bytes out;
  ByteWriter w(out);
  FrameControl fc;
  fc.type = FrameType::Control;
  fc.subtype = Subtype::Ack;
  w.u16le(fc.encode());
  w.u16le(duration_us);
  w.bytes(ra.b);
  const u32 fcs = crypto::Crc32::compute(out);
  put_le32(out, fcs);
  return out;
}

std::optional<MpduHeader> parse_mpdu_header(std::span<const u8> mpdu) {
  if (mpdu.size() < kHdrBytes + kHcsBytes + kFcsBytes) return std::nullopt;
  MpduHeader h;
  h.hdr = DataHeader::decode(mpdu.subspan(0, kHdrBytes));
  const u16 hcs = get_le16(mpdu, kHdrBytes);
  h.hcs_ok = (hcs == crypto::Crc16Ccitt::compute(mpdu.subspan(0, kHdrBytes)));
  h.body_len = mpdu.size() - kHdrBytes - kHcsBytes - kFcsBytes;
  return h;
}

std::optional<ParsedMpdu> parse_data_mpdu(std::span<const u8> mpdu) {
  const auto h = parse_mpdu_header(mpdu);
  if (!h) return std::nullopt;
  ParsedMpdu p;
  p.hdr = h->hdr;
  p.hcs_ok = h->hcs_ok;
  const auto body = mpdu.subspan(kHdrBytes + kHcsBytes, h->body_len);
  p.body.assign(body.begin(), body.end());
  p.fcs_ok = trailing_fcs_ok(mpdu);
  return p;
}

Bytes build_rts(const MacAddr& ra, const MacAddr& ta, u16 duration_us) {
  Bytes out;
  ByteWriter w(out);
  FrameControl fc;
  fc.type = FrameType::Control;
  fc.subtype = Subtype::Rts;
  w.u16le(fc.encode());
  w.u16le(duration_us);
  w.bytes(ra.b);
  w.bytes(ta.b);
  const u32 fcs = crypto::Crc32::compute(out);
  put_le32(out, fcs);
  return out;
}

Bytes build_cts(const MacAddr& ra, u16 duration_us) {
  Bytes out;
  ByteWriter w(out);
  FrameControl fc;
  fc.type = FrameType::Control;
  fc.subtype = Subtype::Cts;
  w.u16le(fc.encode());
  w.u16le(duration_us);
  w.bytes(ra.b);
  const u32 fcs = crypto::Crc32::compute(out);
  put_le32(out, fcs);
  return out;
}

u16 cts_duration_from_rts(u16 rts_duration_us, const ProtocolTiming& t) {
  // A CTS shares the 14-byte ACK layout; ack_air_us is the single source
  // for the control-frame air time (see its declaration).
  const double spent_us = t.sifs_us + ack_air_us(t);
  return rts_duration_us > spent_us
             ? static_cast<u16>(static_cast<double>(rts_duration_us) - spent_us)
             : 0;
}

Bytes build_cf_end(const MacAddr& ra, const MacAddr& bssid, bool with_ack) {
  Bytes out;
  ByteWriter w(out);
  FrameControl fc;
  fc.type = FrameType::Control;
  fc.subtype = with_ack ? Subtype::CfEndAck : Subtype::CfEnd;
  w.u16le(fc.encode());
  w.u16le(0);  // Duration 0: the CFP is over, NAVs reset.
  w.bytes(ra.b);
  w.bytes(bssid.b);
  const u32 fcs = crypto::Crc32::compute(out);
  put_le32(out, fcs);
  return out;
}

Bytes BeaconBody::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u32le(static_cast<u32>(timestamp_us));
  w.u32le(static_cast<u32>(timestamp_us >> 32));
  w.u16le(interval_us);
  return out;
}

std::optional<BeaconBody> BeaconBody::decode(std::span<const u8> body) {
  if (body.size() < 10) return std::nullopt;
  BeaconBody b;
  b.timestamp_us = static_cast<u64>(get_le32(body, 0)) |
                   (static_cast<u64>(get_le32(body, 4)) << 32);
  b.interval_us = get_le16(body, 8);
  return b;
}

Bytes build_beacon(const MacAddr& bssid, u16 seq, const BeaconBody& body) {
  DataHeader h;
  h.fc.type = FrameType::Management;
  h.fc.subtype = Subtype::Beacon;
  h.addr1 = MacAddr::from_u64(0xFFFFFFFFFFFFull);  // Broadcast.
  h.addr2 = bssid;
  h.addr3 = bssid;
  h.seq_num = seq;
  return build_data_mpdu(h, body.encode());
}

std::optional<ParsedCtl> parse_control(std::span<const u8> frame) {
  auto p = decode_control(frame);
  if (p) p->fcs_ok = trailing_fcs_ok(frame);
  return p;
}

std::optional<ParsedCtl> decode_control(std::span<const u8> frame) {
  if (frame.size() != kAckBytes && frame.size() != kRtsBytes) return std::nullopt;
  ParsedCtl p;
  p.fc = FrameControl::decode(get_le16(frame, 0));
  if (p.fc.type != FrameType::Control) return std::nullopt;
  const bool short_form = frame.size() == kAckBytes;
  if (short_form && p.fc.subtype != Subtype::Ack && p.fc.subtype != Subtype::Cts) {
    return std::nullopt;
  }
  if (!short_form && p.fc.subtype != Subtype::Rts && p.fc.subtype != Subtype::CfEnd &&
      p.fc.subtype != Subtype::CfEndAck) {
    return std::nullopt;
  }
  p.duration_us = get_le16(frame, 2);
  std::copy(frame.begin() + 4, frame.begin() + 10, p.ra.b.begin());
  if (!short_form) {
    std::copy(frame.begin() + 10, frame.begin() + 16, p.ta.b.begin());
  }
  return p;
}

bool is_ack(std::span<const u8> frame, const MacAddr& expected_ra) {
  if (frame.size() != kAckBytes) return false;
  const auto fc = FrameControl::decode(get_le16(frame, 0));
  if (fc.type != FrameType::Control || fc.subtype != Subtype::Ack) return false;
  MacAddr ra;
  std::copy(frame.begin() + 4, frame.begin() + 10, ra.b.begin());
  if (!(ra == expected_ra)) return false;
  return trailing_fcs_ok(frame);
}

}  // namespace drmp::mac::wifi
