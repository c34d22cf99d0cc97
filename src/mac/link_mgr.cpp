#include "mac/link_mgr.hpp"

#include <cstdint>

namespace drmp::mac {

LinkMgr::LinkMgr(Params p, const sim::TimeBase& tb, const sim::Scheduler& clock)
    : p_(p), clock_(clock), start_cycle_(tb.us_to_cycles(p.start_us)) {}

void LinkMgr::submit_mgmt(u32 bytes, u8 fill) {
  Bytes b(bytes);
  for (u32 i = 0; i < bytes; ++i) b[i] = static_cast<u8>(fill + i);
  pending_.push_back(kKindMgmt);
  send(std::move(b));
}

void LinkMgr::tick() {
  const Cycle t = now_++;
  if (started_ || t < start_cycle_) return;
  started_ = true;
  state_ = kProbing;
  submit_mgmt(p_.probe_bytes, 0x50);
}

bool LinkMgr::settled() const noexcept {
  for (u8 k : pending_) {
    if (k == kKindMgmt) return false;
  }
  return true;
}

bool LinkMgr::notify_complete(bool ok, u32 retries) {
  u8 kind = kKindTraffic;
  if (!pending_.empty()) {
    kind = pending_.front();
    pending_.pop_front();
  }
  if (kind == kKindTraffic) {
    on_traffic_complete(ok, retries);
    return false;
  }
  if (!ok) {
    // The exchange frame burnt its retries (collisions, hidden interferers):
    // relaunch the current stage rather than stranding the station.
    if (state_ == kProbing) {
      submit_mgmt(p_.probe_bytes, 0x50);
    } else if (state_ == kAssociating) {
      submit_mgmt(p_.assoc_bytes, 0xA0);
    }
    return true;
  }
  if (state_ == kProbing) {
    state_ = kAssociating;
    submit_mgmt(p_.assoc_bytes, 0xA0);
  } else if (state_ == kAssociating) {
    state_ = kAssociated;
    // Read only by DRMP_OBS, which DRMP_OBS_DISABLE compiles out.
    [[maybe_unused]] const auto serving_signed =
        static_cast<i64>(static_cast<std::int32_t>(serving_));
    if (reassoc_pending_) {
      reassoc_pending_ = false;
      ++reassociations_;
      handoff_latency_total_ += clock_.now() - handoff_started_;
      DRMP_OBS(rec_, clock_.now(), obs::EventKind::kReassociate, track_,
               p_.station_id, serving_signed);
    } else {
      DRMP_OBS(rec_, clock_.now(), obs::EventKind::kAssociate, track_,
               p_.station_id, serving_signed);
    }
    if (gate) gate(true);
  }
  return true;
}

void LinkMgr::handoff(u32 target_cell) {
  ++handoffs_;
  serving_ = target_cell;
  DRMP_OBS(rec_, clock_.now(), obs::EventKind::kHandoff, track_, p_.station_id,
           static_cast<i64>(static_cast<std::int32_t>(target_cell)));
  if (state_ == kAssociated) {
    // Drop the serving link: close the gate and re-run the exchange against
    // the new AP. In-flight traffic completes against the old link and is
    // judged by on_traffic_complete as usual.
    if (gate) gate(false);
    state_ = kProbing;
    reassoc_pending_ = true;
    handoff_started_ = clock_.now();
    submit_mgmt(p_.probe_bytes, 0x50);
  } else if (state_ == kProbing || state_ == kAssociating) {
    // Exchange already in flight: it now completes toward the new serving
    // AP — only the target bookkeeping changes.
    if (!reassoc_pending_ && started_) {
      reassoc_pending_ = true;
      handoff_started_ = clock_.now();
    }
  }
  // kIdle: the initial probe has not launched; serving retarget suffices.
}

void LinkMgr::on_traffic_complete(bool ok, u32 retries) {
  if (!ok) ++link_loss_drops_;  // Retry exhaustion: the link lost the MSDU.
  if (!p_.adapt_rate) return;
  if (!ok || retries > 0) {
    good_run_ = 0;
    if (++bad_run_ >= p_.rate_down_after) {
      bad_run_ = 0;
      shift_rate(/*down=*/true);
    }
  } else {
    bad_run_ = 0;
    if (++good_run_ >= p_.rate_up_after) {
      good_run_ = 0;
      shift_rate(/*down=*/false);
    }
  }
}

void LinkMgr::shift_rate(bool down) {
  const u32 prev = rate_idx_;
  if (down) {
    if (rate_idx_ + 1 < p_.rate_steps) ++rate_idx_;
  } else {
    if (rate_idx_ > 0) --rate_idx_;
  }
  if (rate_idx_ == prev) return;
  const Cycle at = clock_.now();
  rate_duty_ += static_cast<double>(at - rate_since_) * fraction(prev);
  rate_since_ = at;
  ++rate_shifts_;
  DRMP_OBS(rec_, at, obs::EventKind::kRateChange, track_,
           static_cast<int>(rate_idx_), down ? i64{-1} : i64{1});
}

double LinkMgr::rate_scale(Cycle at) const noexcept {
  if (at == 0) return 1.0;
  const double duty =
      rate_duty_ +
      static_cast<double>(at > rate_since_ ? at - rate_since_ : 0) *
          fraction(rate_idx_);
  return duty / static_cast<double>(at);
}

}  // namespace drmp::mac
