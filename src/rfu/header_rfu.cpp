#include "rfu/header_rfu.hpp"

#include "sim/checkpoint.hpp"

#include <cassert>

#include "hw/ctrl_layout.hpp"
#include "mac/uwb_frames.hpp"
#include "mac/wifi_frames.hpp"
#include "mac/wimax_frames.hpp"

namespace drmp::rfu {

using hw::CtrlWord;

std::vector<Word> HeaderRfu::make_config_blob(u8 state) {
  // [hdr_len, hcs_len, hcs_in_header, reserved...]; padded to model realistic
  // format-descriptor volume.
  std::vector<Word> blob;
  switch (state) {
    case cfg::kProtoWifi:
      blob = {mac::wifi::kHdrBytes, 2, 0};
      break;
    case cfg::kProtoUwb:
      blob = {mac::uwb::kHdrBytes, 2, 0};
      break;
    case cfg::kProtoWimax:
      blob = {mac::wimax::kGmhBytes, 1, 1};  // HCS is GMH byte 5.
      break;
    default:
      blob = {0, 0, 0};
      break;
  }
  while (blob.size() < 12) blob.push_back(0);
  return blob;
}

void HeaderRfu::on_reconfigured(u8 /*state*/, const std::vector<Word>& blob) {
  if (blob.size() < 3) return;
  fmt_hdr_len_ = blob[0];
  fmt_hcs_len_ = blob[1];
  fmt_hcs_in_header_ = blob[2] != 0;
}

void HeaderRfu::on_execute(Op op) {
  stage_ = 0;
  status_idx_ = 0;
  switch (op) {
    case Op::AssembleWifi:
    case Op::AssembleUwb:
    case Op::AssembleWimax: {
      task_ = Task::Assemble;
      parse_ = false;
      const u32 hdr_tmpl = args_.at(0);
      body_page_ = args_.at(1);
      dst_page_ = args_.at(2);
      q_read_page(hdr_tmpl);   // Header template bytes -> in_bytes_.
      break;
    }
    case Op::ParseWifi:
    case Op::ParseUwb:
    case Op::ParseWimax: {
      task_ = Task::Parse;
      parse_ = true;
      const u32 src = args_.at(0);
      status_base_ = args_.at(1);
      q_read_page(src);
      break;
    }
    case Op::ExtractWifi:
    case Op::ExtractUwb:
    case Op::ExtractWimax: {
      task_ = Task::Extract;
      parse_ = false;
      const u32 src = args_.at(0);
      dst_page_ = args_.at(1);
      q_read_page(src);
      break;
    }
    default:
      assert(false && "HeaderRfu: unknown op");
  }
}

void HeaderRfu::do_extract() {
  // Pull the MPDU body out via the protocol codec (byte-shifting copy).
  out_bytes_.clear();
  switch (c_state_) {
    case cfg::kProtoWifi: {
      if (const auto h = mac::wifi::parse_mpdu_header(in_bytes_)) {
        const auto body = in_bytes_.begin() + mac::wifi::kHdrBytes + mac::wifi::kHcsBytes;
        out_bytes_.assign(body, body + static_cast<std::ptrdiff_t>(h->body_len));
      }
      break;
    }
    case cfg::kProtoUwb: {
      if (const auto h = mac::uwb::parse_header(in_bytes_)) {
        const auto body = in_bytes_.begin() + mac::uwb::kHdrBytes + mac::uwb::kHcsBytes;
        out_bytes_.assign(body, body + static_cast<std::ptrdiff_t>(h->body_len));
      }
      break;
    }
    case cfg::kProtoWimax: {
      if (const auto p = mac::wimax::parse_mpdu(in_bytes_)) {
        if (!p->packed.empty()) {
          // Packed MPDU: emit the concatenated subheader+payload blocks so
          // the Pack RFU can extract individual SDUs downstream.
          for (const auto& s : p->packed) {
            put_le16(out_bytes_, s.sh.encode());
            out_bytes_.insert(out_bytes_.end(), s.payload.begin(), s.payload.end());
          }
        } else {
          out_bytes_ = p->payload;
        }
      }
      break;
    }
    default:
      break;
  }
}

void HeaderRfu::do_parse() {
  // Decode in_bytes_ per the configured protocol; produce sparse status-word
  // writes (only the fields this parse actually determines — the FCS result
  // written earlier by the Rx RFU must not be clobbered). WiFi and UWB take
  // kFcsOk from the modelled FCS check, so their host-side parse runs no
  // CRC-32 and copies no body; WiMAX writes kFcsOk from its own parse.
  status_out_.clear();
  auto set = [&](CtrlWord w, Word v) {
    status_out_.emplace_back(static_cast<u32>(w), v);
  };
  set(CtrlWord::kParseOk, 0);
  switch (c_state_) {
    case cfg::kProtoWifi: {
      // Control frames (ACK/CTS/RTS) are shorter than a data MPDU; recognize
      // them first so the Event Handler can raise RxAckInd or respond with a
      // CTS (§2.3.2.2 #10 — the handshake is unique to WiFi).
      if (in_bytes_.size() == mac::wifi::kAckBytes ||
          in_bytes_.size() == mac::wifi::kRtsBytes) {
        if (const auto c = mac::wifi::decode_control(in_bytes_)) {
          set(CtrlWord::kParseOk, 1);
          set(CtrlWord::kHcsOk, 1);  // Control frames carry no HCS.
          set(CtrlWord::kFrameType,
              (static_cast<Word>(c->fc.type) << 8) | static_cast<Word>(c->fc.subtype));
          set(CtrlWord::kAckPolicy, 0);
          const u64 ra = c->ra.to_u64();
          set(CtrlWord::kDstLo, static_cast<Word>(ra));
          set(CtrlWord::kDstHi, static_cast<Word>(ra >> 32));
          const u64 ta = c->ta.to_u64();  // Zero except for RTS.
          set(CtrlWord::kSrcLo, static_cast<Word>(ta));
          set(CtrlWord::kSrcHi, static_cast<Word>(ta >> 32));
          break;
        }
      }
      const auto p = mac::wifi::parse_mpdu_header(in_bytes_);
      if (!p) break;
      set(CtrlWord::kParseOk, 1);
      set(CtrlWord::kHcsOk, p->hcs_ok ? 1 : 0);
      set(CtrlWord::kFrameType, (static_cast<Word>(p->hdr.fc.type) << 8) |
                                    static_cast<Word>(p->hdr.fc.subtype));
      set(CtrlWord::kSeq, p->hdr.seq_num);
      set(CtrlWord::kFrag, p->hdr.frag_num);
      set(CtrlWord::kMoreFrag, p->hdr.fc.more_frag ? 1 : 0);
      set(CtrlWord::kRetry, p->hdr.fc.retry ? 1 : 0);
      const u64 src = p->hdr.addr2.to_u64();
      set(CtrlWord::kSrcLo, static_cast<Word>(src));
      set(CtrlWord::kSrcHi, static_cast<Word>(src >> 32));
      const u64 dst = p->hdr.addr1.to_u64();
      set(CtrlWord::kDstLo, static_cast<Word>(dst));
      set(CtrlWord::kDstHi, static_cast<Word>(dst >> 32));
      set(CtrlWord::kBodyLen, static_cast<Word>(p->body_len));
      // WiFi data frames are ACKed (DCF) — but PCF poll/null subtypes are
      // acknowledged by piggyback within the CFP, never with ACK frames.
      set(CtrlWord::kAckPolicy,
          (p->hdr.fc.type == mac::wifi::FrameType::Data &&
           p->hdr.fc.subtype == mac::wifi::Subtype::Data)
              ? 1
              : 0);
      break;
    }
    case cfg::kProtoUwb: {
      const auto p = mac::uwb::parse_header(in_bytes_);
      if (!p) break;
      set(CtrlWord::kParseOk, 1);
      set(CtrlWord::kHcsOk, p->hcs_ok ? 1 : 0);
      set(CtrlWord::kFrameType, static_cast<Word>(p->hdr.type));
      set(CtrlWord::kSeq, p->hdr.msdu_num);
      set(CtrlWord::kFrag, p->hdr.frag_num);
      set(CtrlWord::kMoreFrag, p->hdr.frag_num < p->hdr.last_frag_num ? 1 : 0);
      set(CtrlWord::kRetry, p->hdr.retry ? 1 : 0);
      set(CtrlWord::kSrcLo, (static_cast<Word>(p->hdr.pnid) << 16) | p->hdr.src_id);
      set(CtrlWord::kDstLo, p->hdr.dest_id);
      set(CtrlWord::kBodyLen, static_cast<Word>(p->body_len));
      set(CtrlWord::kAckPolicy,
          p->hdr.ack_policy == mac::uwb::AckPolicy::ImmAck ? 1 : 0);
      break;
    }
    case cfg::kProtoWimax: {
      const auto p = mac::wimax::parse_mpdu(in_bytes_);
      if (!p) break;
      set(CtrlWord::kParseOk, 1);
      set(CtrlWord::kHcsOk, p->hcs_ok ? 1 : 0);
      set(CtrlWord::kFcsOk, p->crc_present ? (p->crc_ok ? 1 : 0) : 1);
      set(CtrlWord::kFrameType, p->gmh.type);
      set(CtrlWord::kCid, p->gmh.cid);
      set(CtrlWord::kPackCount, static_cast<Word>(p->packed.size()));
      if (p->frag) {
        set(CtrlWord::kSeq, p->frag->fsn);
        set(CtrlWord::kFrag, static_cast<Word>(p->frag->fc));
      }
      set(CtrlWord::kBodyLen, static_cast<Word>(p->payload.size()));
      set(CtrlWord::kAckPolicy, 0);  // WiMAX: ARQ feedback, not ACK frames.
      break;
    }
    default:
      assert(false && "HeaderRfu: not configured");
  }
}

bool HeaderRfu::work_step() {
  if (task_ == Task::Extract) {
    switch (stage_) {
      case 0:
        if (!io_step()) return false;
        do_extract();
        q_stall(1);
        q_write_page(dst_page_);
        stage_ = 1;
        return false;
      default:
        return io_step();
    }
  }
  if (parse_) {
    switch (stage_) {
      case 0:
        if (!io_step()) return false;
        do_parse();
        q_stall(2);  // Field extraction latency.
        stage_ = 1;
        return false;
      case 1:
        if (!io_step()) return false;
        stage_ = 2;
        [[fallthrough]];
      default: {
        // Write status words, one bus access per cycle.
        if (status_idx_ >= status_out_.size()) return true;
        if (!bus_granted() || !bus_free()) return false;
        const auto& [idx, value] = status_out_[status_idx_];
        bus_write(status_base_ + idx, value);
        ++status_idx_;
        return status_idx_ >= status_out_.size();
      }
    }
  }
  // Assembly path.
  switch (stage_) {
    case 0: {
      if (!io_step()) return false;
      hdr_bytes_ = in_bytes_;
      // Template may carry trailing subheaders (WiMAX frag/packing).
      assert(hdr_bytes_.size() >= fmt_hdr_len_ && "header template shorter than format");
      q_read_page(body_page_);
      stage_ = 1;
      return false;
    }
    case 1: {
      if (!io_step()) return false;
      out_bytes_ = hdr_bytes_;
      if (!fmt_hcs_in_header_) {
        // HCS placeholder between header and body (patched by HdrCheckRfu).
        out_bytes_.insert(out_bytes_.end(), fmt_hcs_len_, 0);
      }
      out_bytes_.insert(out_bytes_.end(), in_bytes_.begin(), in_bytes_.end());
      q_write_page(dst_page_);
      stage_ = 2;
      return false;
    }
    default:
      return io_step();
  }
}


void HeaderRfu::save_extra(sim::snap::Writer& w) { persist(w); }
void HeaderRfu::load_extra(sim::snap::Reader& r) { persist(r); }

}  // namespace drmp::rfu
