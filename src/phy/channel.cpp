#include "phy/channel.hpp"

#include "mac/uwb_frames.hpp"
#include "mac/wifi_frames.hpp"
#include "mac/wimax_frames.hpp"

namespace drmp::phy {

ScriptedPeer::ScriptedPeer(Medium& medium, const sim::TimeBase& tb, int self_id)
    : medium_(medium), tb_(tb), self_id_(self_id) {
  medium_.attach(*this, self_id);  // Listener-qualified on contended media.
  medium_.subscribe_wake(*this);  // Carrier extensions re-gate queued sends.
}

void ScriptedPeer::inject_frame(Bytes frame, Cycle at_cycle) {
  schedule_tx(std::move(frame), at_cycle);
}

void ScriptedPeer::schedule_tx(Bytes frame, Cycle earliest) {
  wake_self();  // New scheduled work invalidates any sleep bound.
  pending_tx_.push_back(Pending{std::move(frame), earliest});
}

void ScriptedPeer::on_frame(const Bytes& frame, Cycle rx_end_cycle, int source) {
  if (source == self_id_) return;
  wake_self();  // Responses may be scheduled below; CFP/ack state advances.
  const Cycle sifs = static_cast<Cycle>(medium_.timing().sifs_us * 1e-6 * tb_.arch_freq());

  switch (medium_.protocol()) {
    case mac::Protocol::WiFi: {
      // The FCS verdict is the medium's, judged once per delivered image.
      // RTS handshake: a real peer answers CTS after SIFS (§2.3.2.2 #10).
      if (const auto ctl = mac::wifi::decode_control(frame)) {
        if (ctl->fc.subtype == mac::wifi::Subtype::Rts && ctl->ra == wifi_addr_ &&
            medium_.fcs_ok(frame)) {
          ++rts_seen_;
          if (auto_cts_ && rx_end_cycle >= cts_nav_until_) {
            // The CTS inherits the RTS reservation minus the SIFS gap and
            // its own air time (802.11 duration arithmetic) — this is the
            // field a hidden station's NAV arms from, since it may hear the
            // responder but not the RTS originator.
            const u16 dur =
                mac::wifi::cts_duration_from_rts(ctl->duration_us, medium_.timing());
            schedule_tx(mac::wifi::build_cts(ctl->ta, dur), rx_end_cycle + sifs);
            ++ctss_sent_;
            // A CTS responder honours its own virtual carrier (802.11: "a
            // STA that receives an RTS shall transmit CTS only if its NAV
            // indicates idle"): granting one exchange reserves the medium,
            // and a hidden station's RTS arriving mid-reservation must go
            // unanswered (it will CTS-timeout and re-contend) instead of
            // double-granting two overlapping protected exchanges.
            cts_nav_until_ =
                rx_end_cycle + sifs + medium_.frame_air_cycles(mac::wifi::kCtsBytes) +
                tb_.us_to_cycles(static_cast<double>(dur));
          }
        }
        return;
      }
      const auto parsed = mac::wifi::parse_mpdu_header(frame);
      if (!parsed || parsed->hdr.fc.type != mac::wifi::FrameType::Data) return;
      if (cfp_active()) {
        // Point-coordinator role: data from the polled station is
        // acknowledged by piggyback on the next poll; Null answers are just
        // bookkeeping. No ACK frames inside the CFP (§2.3.2.1 #11).
        if (parsed->hdr.fc.subtype == mac::wifi::Subtype::Null) {
          ++cfp_nulls_rx_;
          return;
        }
        if (parsed->hdr.fc.subtype == mac::wifi::Subtype::Data && parsed->hcs_ok &&
            medium_.fcs_ok(frame)) {
          received_.push_back(frame);
          ++cfp_data_rx_;
          cfp_ack_pending_ = true;
        }
        return;
      }
      received_.push_back(frame);
      ++data_seen_;
      if (drop_every_ != 0 && data_seen_ % drop_every_ == 0) {
        ++dropped_;
        return;
      }
      if (auto_ack_ && medium_.fcs_ok(frame)) {
        // ACK the transmitter (addr2) after SIFS — the hard real-time
        // response the DRMP's own ACK path must also honour. Inside a
        // SIFS-spaced fragment burst the ACK chains the NAV to the next
        // fragment's ACK (enabled per cell; historic ACKs carry 0).
        const u16 dur = ack_dur_chain_ && parsed->hdr.fc.more_frag
                            ? mac::wifi::ack_duration_from_data(
                                  parsed->hdr.duration_us, medium_.timing())
                            : 0;
        schedule_tx(mac::wifi::build_ack(parsed->hdr.addr2, dur), rx_end_cycle + sifs);
        ++acks_sent_;
      }
      break;
    }
    case mac::Protocol::Uwb: {
      const auto parsed = mac::uwb::parse_frame(frame);
      if (!parsed || parsed->hdr.type != mac::uwb::FrameType::Data) return;
      received_.push_back(frame);
      ++data_seen_;
      if (drop_every_ != 0 && data_seen_ % drop_every_ == 0) {
        ++dropped_;
        return;
      }
      if (auto_ack_ && parsed->fcs_ok &&
          parsed->hdr.ack_policy == mac::uwb::AckPolicy::ImmAck) {
        schedule_tx(mac::uwb::build_imm_ack(parsed->hdr.pnid, parsed->hdr.src_id, uwb_dev_id_),
                    rx_end_cycle + sifs);
        ++acks_sent_;
      }
      break;
    }
    case mac::Protocol::WiMax: {
      const auto parsed = mac::wimax::parse_mpdu(frame);
      if (!parsed) return;
      received_.push_back(frame);
      ++data_seen_;
      // ARQ feedback is produced by the base-station model in the control
      // software tests; the scripted peer just records.
      break;
    }
  }
}

void ScriptedPeer::begin_cfp(Cycle start_at, u32 polls, double interval_us,
                             const mac::MacAddr& station) {
  wake_self();
  cfp_polls_left_ = polls;
  cfp_end_pending_ = polls > 0;
  cfp_ack_pending_ = false;
  cfp_interval_ = static_cast<Cycle>(interval_us * 1e-6 * tb_.arch_freq());
  cfp_next_poll_ = start_at;
  cfp_station_ = station;
}

void ScriptedPeer::cfp_tick() {
  if (!cfp_active() || medium_.now() < cfp_next_poll_ || !clear_to_send()) return;

  if (cfp_polls_left_ > 0) {
    // CF-Poll (with a piggybacked CF-Ack when uplink data arrived since the
    // previous poll). The point coordinator owns the medium: no contention.
    mac::wifi::DataHeader h;
    h.fc.type = mac::wifi::FrameType::Data;
    h.fc.subtype = cfp_ack_pending_ ? mac::wifi::Subtype::CfAckCfPoll
                                    : mac::wifi::Subtype::CfPoll;
    h.addr1 = cfp_station_;
    h.addr2 = wifi_addr_;
    h.addr3 = wifi_addr_;  // BSSID = the point coordinator.
    cfp_ack_pending_ = false;
    own_tx_end_ = medium_.begin_tx(mac::wifi::build_data_mpdu(h, {}), self_id_);
    ++cfp_polls_sent_;
    --cfp_polls_left_;
    cfp_next_poll_ += cfp_interval_;
    return;
  }

  // Polls exhausted: close the CFP, carrying the last CF-Ack if one is owed.
  own_tx_end_ =
      medium_.begin_tx(mac::wifi::build_cf_end(mac::MacAddr::from_u64(0xFFFFFFFFFFFFull),
                                               wifi_addr_, cfp_ack_pending_),
                       self_id_);
  cfp_ack_pending_ = false;
  cfp_end_pending_ = false;
}

void ScriptedPeer::start_beacons(Cycle start_at, u32 count, double interval_us) {
  wake_self();
  beacons_left_ = count;
  next_beacon_ = start_at;
  beacon_interval_ = static_cast<Cycle>(interval_us * 1e-6 * tb_.arch_freq());
  beacon_interval_us_ = static_cast<u16>(interval_us);
}

Cycle ScriptedPeer::quiescent_for() const {
  // Earliest due event among the three transmit sources...
  Cycle due = sim::Clockable::kIdleForever;
  if (beacons_left_ > 0) due = std::min(due, next_beacon_);
  if (cfp_active()) due = std::min(due, cfp_next_poll_);
  if (!pending_tx_.empty()) due = std::min(due, pending_tx_.front().earliest);
  if (due == sim::Clockable::kIdleForever) return due;
  // ... gated by the shared half-duplex/carrier window: the first tick that
  // could transmit observes `ready`.
  const Cycle ready = std::max({due, own_tx_end_, medium_.cca_clear_at(self_id_)});
  return sim::ticks_until_reading(ready, medium_.now());
}

void ScriptedPeer::tick() {
  if (beacons_left_ > 0 && medium_.now() >= next_beacon_ && clear_to_send()) {
    mac::wifi::BeaconBody body;
    body.timestamp_us =
        static_cast<u64>(static_cast<double>(medium_.now()) / tb_.arch_freq() * 1e6);
    body.interval_us = beacon_interval_us_;
    own_tx_end_ = medium_.begin_tx(mac::wifi::build_beacon(wifi_addr_, beacon_seq_++, body),
                                   self_id_);
    ++beacons_sent_;
    --beacons_left_;
    next_beacon_ += beacon_interval_;
  }
  cfp_tick();
  if (pending_tx_.empty()) return;
  Pending& p = pending_tx_.front();
  if (medium_.now() < p.earliest || !clear_to_send()) return;
  own_tx_end_ = medium_.begin_tx(std::move(p.frame), self_id_);
  pending_tx_.pop_front();
}

}  // namespace drmp::phy
