#include "mac/uwb_frames.hpp"

#include "crypto/crc.hpp"

namespace drmp::mac::uwb {

Bytes Header::encode() const {
  Bytes out;
  out.reserve(kHdrBytes);
  ByteWriter w(out);
  u16 fc = 0;
  fc |= static_cast<u16>(static_cast<u8>(type) & 0x7) << 3;
  if (sec) fc |= 1u << 6;
  fc |= static_cast<u16>(static_cast<u8>(ack_policy) & 0x3) << 7;
  if (retry) fc |= 1u << 9;
  if (more_data) fc |= 1u << 10;
  w.u16le(fc);
  w.u16le(pnid);
  w.u8_(dest_id);
  w.u8_(src_id);
  // Fragmentation control: msdu(9) | frag(7) | last_frag(7), one padding bit.
  const u32 fctl = static_cast<u32>(msdu_num & 0x1FF) |
                   (static_cast<u32>(frag_num & 0x7F) << 9) |
                   (static_cast<u32>(last_frag_num & 0x7F) << 16);
  w.u8_(static_cast<u8>(fctl & 0xFF));
  w.u8_(static_cast<u8>((fctl >> 8) & 0xFF));
  w.u8_(static_cast<u8>((fctl >> 16) & 0xFF));
  w.u8_(stream_index);
  return out;
}

Header Header::decode(std::span<const u8> hdr10) {
  ByteReader r(hdr10);
  Header h;
  const u16 fc = r.u16le();
  h.type = static_cast<FrameType>((fc >> 3) & 0x7);
  h.sec = (fc >> 6) & 1;
  h.ack_policy = static_cast<AckPolicy>((fc >> 7) & 0x3);
  h.retry = (fc >> 9) & 1;
  h.more_data = (fc >> 10) & 1;
  h.pnid = r.u16le();
  h.dest_id = r.u8_();
  h.src_id = r.u8_();
  const u32 fctl = static_cast<u32>(r.u8_()) | (static_cast<u32>(r.u8_()) << 8) |
                   (static_cast<u32>(r.u8_()) << 16);
  h.msdu_num = static_cast<u16>(fctl & 0x1FF);
  h.frag_num = static_cast<u8>((fctl >> 9) & 0x7F);
  h.last_frag_num = static_cast<u8>((fctl >> 16) & 0x7F);
  h.stream_index = r.u8_();
  return h;
}

Bytes build_data_frame(const Header& hdr, std::span<const u8> body) {
  Bytes out = hdr.encode();
  const u16 hcs = crypto::Crc16Ccitt::compute(out);
  put_le16(out, hcs);
  out.insert(out.end(), body.begin(), body.end());
  const u32 fcs = crypto::Crc32::compute(out);
  put_le32(out, fcs);
  return out;
}

Bytes build_imm_ack(u16 pnid, u8 dest_id, u8 src_id) {
  Header h;
  h.type = FrameType::ImmAck;
  h.pnid = pnid;
  h.dest_id = dest_id;
  h.src_id = src_id;
  Bytes out = h.encode();
  const u16 hcs = crypto::Crc16Ccitt::compute(out);
  put_le16(out, hcs);
  return out;
}

std::optional<FrameHeader> parse_header(std::span<const u8> frame) {
  if (frame.size() < kHdrBytes + kHcsBytes) return std::nullopt;
  FrameHeader h;
  h.hdr = Header::decode(frame.subspan(0, kHdrBytes));
  const u16 hcs = get_le16(frame, kHdrBytes);
  h.hcs_ok = (hcs == crypto::Crc16Ccitt::compute(frame.subspan(0, kHdrBytes)));
  if (frame.size() == kHdrBytes + kHcsBytes) return h;  // Header-only (Imm-ACK).
  if (frame.size() < kHdrBytes + kHcsBytes + kFcsBytes) return std::nullopt;
  h.body_len = frame.size() - kHdrBytes - kHcsBytes - kFcsBytes;
  return h;
}

std::optional<ParsedFrame> parse_frame(std::span<const u8> frame) {
  const auto h = parse_header(frame);
  if (!h) return std::nullopt;
  ParsedFrame p;
  p.hdr = h->hdr;
  p.hcs_ok = h->hcs_ok;
  if (frame.size() == kHdrBytes + kHcsBytes) {
    p.fcs_ok = true;  // Header-only frame (Imm-ACK).
    return p;
  }
  const auto body = frame.subspan(kHdrBytes + kHcsBytes, h->body_len);
  p.body.assign(body.begin(), body.end());
  p.fcs_ok = trailing_fcs_ok(frame);
  return p;
}

}  // namespace drmp::mac::uwb
