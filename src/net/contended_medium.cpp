#include "net/contended_medium.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"

namespace drmp::net {

ContendedMedium::ContendedMedium(mac::Protocol proto, const sim::TimeBase& tb, Params p)
    : Medium(proto, tb, /*sleeps=*/true), params_(std::move(p)) {
  const mac::ProtocolTiming t = mac::timing_for(proto);
  double latency_us = params_.cca_latency_us;
  if (latency_us < 0.0) latency_us = mac::cca_latency_default_us(t);
  cca_latency_ = tb.us_to_cycles(latency_us);
  capture_cycles_ = tb.us_to_cycles(params_.capture_preamble_us);
  if (params_.audibility.n > kMaxMatrixListeners) {
    throw std::invalid_argument(
        "net::ContendedMedium: audibility matrices cover at most 64 stations");
  }
  for (std::size_t i = 0; i < params_.audibility.n; ++i) {
    // A station always hears its own past transmissions (the perceived-
    // carrier tail the half-duplex gates rely on); a zeroed diagonal would
    // let it count IFS progress over its own airtime — fail loudly instead.
    if (!params_.audibility.hears(i, i)) {
      throw std::invalid_argument(
          "net::ContendedMedium: the audibility diagonal must stay 1");
    }
  }
  last_heard_.assign(params_.audibility.n, 0);
}

void ContendedMedium::map_station(int source_id, std::size_t matrix_index) {
  if (trivial()) return;  // All-ones fast path: every id is omnidirectional.
  if (matrix_index >= params_.audibility.n) {
    throw std::invalid_argument(
        "net::ContendedMedium::map_station: index outside the audibility matrix");
  }
  station_idx_[source_id] = matrix_index;
}

void ContendedMedium::apply_audibility(const AudibilityMatrix& m) {
  if (trivial() || m.n != params_.audibility.n) {
    throw std::invalid_argument(
        "net::ContendedMedium::apply_audibility: revisions must cover the "
        "same station set as the construction-time matrix");
  }
  if (capture_cycles_ > 0) {
    throw std::logic_error(
        "net::ContendedMedium::apply_audibility: the capture effect is "
        "incompatible with topology revisions (verdicts taken under an "
        "earlier epoch cannot be re-litigated)");
  }
  for (std::size_t i = 0; i < m.n; ++i) {
    if (!m.hears(i, i)) {
      throw std::invalid_argument(
          "net::ContendedMedium::apply_audibility: the audibility diagonal "
          "must stay 1");
    }
  }
  if (m == params_.audibility) return;  // No change: not an epoch.
  // Sleeping transmit gates must re-read their carrier bounds under the new
  // footprints, and a skipped lane must be dispatched again. Woken before
  // the revision, so what they owe is settled under the old epoch and the
  // medium's clock is caught up before it stamps the epoch event.
  wake_subscribers();
  wake_self();
  params_.audibility = m;
  ++topology_epoch_;
  // Re-mask in-flight frames against the new epoch. Rebuild every
  // undelivered local entry's jam mask from scratch by pairwise interval
  // overlap: this is exactly the accumulation begin_tx/begin_remote_tx
  // performed (liveness at begin time == interval overlap, since local
  // starts are never in the past), evaluated under the new matrix. Delivered
  // entries are history — only their perception windows remain live — and
  // remote images carry no verdict of their own.
  for (Tx& t : on_air_) {
    if (!t.remote && !t.delivered) t.jam_mask = 0;
  }
  for (std::size_t a = 0; a + 1 < on_air_.size(); ++a) {
    for (std::size_t b = a + 1; b < on_air_.size(); ++b) {
      Tx& x = on_air_[a];
      Tx& y = on_air_[b];
      if (x.end <= y.start || y.end <= x.start) continue;  // No air overlap.
      const u64 both = hearers_of(x.src_idx) & hearers_of(y.src_idx);
      if (!x.remote && !x.delivered) x.jam_mask |= both;
      if (!y.remote && !y.delivered) y.jam_mask |= both;
    }
  }
  DRMP_OBS(rec_, now_, obs::EventKind::kTopologyEpoch, rec_track_,
           static_cast<int>(topology_epoch_), static_cast<i64>(m.n));
}

void ContendedMedium::restore_audibility(const AudibilityMatrix& m, u64 epoch) {
  if (trivial() || m.n != params_.audibility.n) {
    throw std::invalid_argument(
        "net::ContendedMedium::restore_audibility: matrix size mismatch");
  }
  params_.audibility = m;
  topology_epoch_ = epoch;
}

bool ContendedMedium::listener_deaf_at(int listener, Cycle end) const noexcept {
  // The receive-quality records ask about the delivery moment `end` (the
  // arriving frame's last air cycle is end - 1): a station whose own
  // transmission covers that cycle talked over the tail it would have had
  // to decode — half-duplex, it sensed nothing — so no reception outcome
  // (bad or clean) applies to it. A station that merely transmitted over an
  // early part of the frame but fell silent before its end DID hear an
  // undecodable tail, and its bad record stands.
  for (const Tx& t : on_air_) {
    if (t.source == listener && t.start < end && end <= t.end) return true;
  }
  return false;
}

int ContendedMedium::matrix_index(int id) const noexcept {
  if (trivial()) return -1;
  const auto it = station_idx_.find(id);
  return it == station_idx_.end() ? -1 : static_cast<int>(it->second);
}

u64 ContendedMedium::hearers_of(int src_idx) const noexcept {
  const std::size_t n = params_.audibility.n;
  if (trivial()) return ~u64{0};
  const u64 all = n >= 64 ? ~u64{0} : (u64{1} << n) - 1;
  if (src_idx < 0) return all;  // Omni transmitters reach every listener.
  u64 mask = 0;
  for (std::size_t l = 0; l < n; ++l) {
    if (params_.audibility.hears(l, static_cast<std::size_t>(src_idx))) {
      mask |= u64{1} << l;
    }
  }
  return mask;
}

void ContendedMedium::jam(Tx& t, u64 both) {
  t.jam_mask |= both;
  if (t.remote) return;  // Counted (and delivered) by its home cell only.
  if (!t.collided) {
    t.collided = true;
    ++collided_frames_;
    ++sources_[t.source].collisions;
    collided_airtime_ += t.end - t.start;
    DRMP_OBS(rec_, now_, obs::EventKind::kCollision, rec_track_, t.source);
  }
}

Cycle ContendedMedium::begin_tx(Bytes frame, int source) {
  // Woken first, so a sleeping medium's clock and latch are caught up to
  // its lane's before the start cycle is stamped.
  wake_self();
  wake_subscribers();
  const Cycle end = now_ + frame_air_cycles(frame.size());
  const int uidx = matrix_index(source);
  const u64 u_hearers = hearers_of(uidx);
  u64 u_jam = 0;
  bool overlap = false;
  for (Tx& t : on_air_) {
    if (t.end <= now_) continue;   // Ended; queued for delivery only.
    if (t.start >= end) continue;  // Future (remote) start past our window.
    // An omnidirectional receiver (the AP, the ether) hears every overlap;
    // matrix listeners are jammed only inside both transmitters' footprints.
    overlap = true;
    const u64 both = u_hearers & hearers_of(t.src_idx);
    if (t.remote) {  // Foreign energy: jams us; its own verdict is elsewhere.
      u_jam |= both;
      continue;
    }
    if (t.collided) {  // Already part of a pile-up.
      t.jam_mask |= both;
      u_jam |= both;
      continue;
    }
    if (capture_cycles_ > 0 && t.start <= now_ && now_ - t.start >= capture_cycles_) {
      // The receivers locked onto t's preamble long ago; the newcomer is
      // lost but t survives.
      ++capture_wins_;
      u_jam |= both;
    } else {
      jam(t, both);
      u_jam |= both;
    }
  }
  SourceStats& s = sources_[source];
  ++s.frames;
  if (overlap) {
    ++collided_frames_;
    ++s.collisions;
    collided_airtime_ += end - now_;
  }
  on_air_.push_back(
      Tx{std::move(frame), now_, end, source, overlap, false, uidx, u_jam});
  tx_end_ = std::max(tx_end_, end);
  DRMP_OBS(rec_, now_, obs::EventKind::kTxStart, rec_track_, source,
           static_cast<i64>(end - now_));
  if (overlap) {
    DRMP_OBS(rec_, now_, obs::EventKind::kCollision, rec_track_, source);
  }
  if (on_tx) on_tx(now_, end, source);
  return end;
}

void ContendedMedium::begin_remote_tx(Cycle start, Cycle end, int source) {
  if (capture_cycles_ > 0) {
    // A capture verdict asks which party was established first *at the
    // processing moment*; window-edge exchange deliberately reorders
    // processing moments, so capture on a coupled medium would make digests
    // depend on the execution path. Refuse loudly instead of diverging.
    throw std::logic_error(
        "net::ContendedMedium::begin_remote_tx: the capture effect is "
        "incompatible with co-channel coupling (order-dependent verdicts)");
  }
  // Sleeping transmit gates must re-evaluate their carrier bounds, and a
  // round-skipped lane must be dispatched again: external input arrived.
  // Woken first, so a sleeping medium's clock is caught up to its lane's
  // before the forward-window check reads it.
  wake_subscribers();
  wake_self();
  if (start < now_ || end <= start) {
    throw std::logic_error(
        "net::ContendedMedium::begin_remote_tx: foreign carrier must arrive "
        "with a forward, non-empty air window (coupler latency >= lane "
        "lookahead)");
  }
  // Jam every live local transmission whose air interval overlaps the
  // image's. Interval arithmetic only — no reading of "now" beyond the
  // liveness filter — so immediate and window-edge injection agree. Any
  // local entry with interval overlap is necessarily still live here
  // (its end exceeds `start`, which is not in the past), so no verdict is
  // ever missed against a delivered frame.
  for (Tx& t : on_air_) {
    if (t.remote) continue;  // Foreign-vs-foreign: neither is ours to judge.
    if (t.end <= start || end <= t.start) continue;
    jam(t, hearers_of(t.src_idx));
  }
  on_air_.push_back(Tx{Bytes{}, start, end, source, /*collided=*/false,
                       /*delivered=*/true, /*src_idx=*/-1, /*jam_mask=*/0,
                       /*remote=*/true});
  ++remote_live_;
  ++remote_txs_;
  // Stamped with the image's (possibly future) air start: injection happens
  // on the calling thread at a round edge, so the log order is the coupler's
  // deterministic exchange order regardless of worker count.
  DRMP_OBS(rec_, start, obs::EventKind::kRemoteCarrier, rec_track_, source,
           static_cast<i64>(end - start));
}

void ContendedMedium::garble(Bytes& frame) {
  // Deterministic bit damage dense enough that FCS and HCS both fail.
  for (std::size_t i = 0; i < frame.size(); i += 7) frame[i] ^= 0xA5;
}

void ContendedMedium::deliver_per_listener(Tx& t) {
  // Frame-level counters follow the omni verdict (t.collided) — identical to
  // the single-viewpoint backend for all-ones matrices; per-listener filters
  // decide who actually receives what.
  const bool garble_mode = params_.deliver_garbled;
  if (t.collided) {
    if (garble_mode) {
      ++garbled_frames_;
      DRMP_OBS(rec_, t.end, obs::EventKind::kGarbled, rec_track_, t.source,
               static_cast<i64>(t.frame.size()));
    } else {
      ++dropped_frames_;
      DRMP_OBS(rec_, t.end, obs::EventKind::kDrop, rec_track_, t.source,
               static_cast<i64>(t.frame.size()));
    }
  } else {
    DRMP_OBS(rec_, t.end, obs::EventKind::kDelivery, rec_track_, t.source,
             static_cast<i64>(t.frame.size()));
  }
  auto listener_hears = [&](int listener_idx, int src_idx) {
    return listener_idx < 0 || src_idx < 0 ||
           params_.audibility.hears(static_cast<std::size_t>(listener_idx),
                                    static_cast<std::size_t>(src_idx));
  };
  // Partition scratch lives on the object (capacity retained): delivery runs
  // once per frame, and a per-call vector trio would be the last steady-
  // state allocation on the tick path.
  std::vector<phy::MediumClient*>& clean = scratch_clean_;
  std::vector<phy::MediumClient*>& jammed = scratch_jammed_;
  std::vector<int>& clean_ids = scratch_clean_ids_;
  clean.clear();
  jammed.clear();
  clean_ids.clear();
  for (const Attached& a : clients_) {
    const int li = matrix_index(a.listener_id);
    if (!listener_hears(li, t.src_idx)) continue;  // Outside the footprint.
    const bool jam = li < 0 ? t.collided : ((t.jam_mask >> li) & 1) != 0;
    if (!jam) {
      if (a.listener_id != t.source) clean_ids.push_back(a.listener_id);
      clean.push_back(a.client);
    } else {
      // A jammed reception is undecodable energy whether or not the garbled
      // bytes are handed over: record the EIFS-relevant bad end for every
      // listener in the footprint (except the transmitter itself).
      if (a.listener_id != t.source) note_rx_quality(a.listener_id, t.end, true);
      if (garble_mode) jammed.push_back(a.client);
    }
  }
  if (clean.empty() && jammed.empty()) return;  // Noise for everyone.
  if (clean.empty()) {
    // The whole audible footprint is jammed: the trivial path's byte order
    // exactly (garble first, then the fault injector).
    garble(t.frame);
    if (tamper && tamper(t.frame)) ++tampered_;
    publish_image(&t.frame);
    for (phy::MediumClient* c : jammed) c->on_frame(t.frame, t.end, t.source);
    publish_image(nullptr);
    return;
  }
  const bool tampered_now = tamper && tamper(t.frame);
  if (tampered_now) ++tampered_;
  for (int id : clean_ids) note_rx_quality(id, t.end, tampered_now);
  publish_image(&t.frame);
  for (phy::MediumClient* c : clean) c->on_frame(t.frame, t.end, t.source);
  if (!jammed.empty()) {
    // Mixed footprints (non-trivial matrices only): the jammed listeners'
    // copy is the tampered frame garbled on top — one injector draw total,
    // keeping the corruption PRNG stream aligned with the clean path. The
    // copy recycles arena storage and goes straight back.
    Bytes g = arena_.acquire();
    g.assign(t.frame.begin(), t.frame.end());
    garble(g);
    publish_image(&g);
    for (phy::MediumClient* c : jammed) c->on_frame(g, t.end, t.source);
    arena_.release(std::move(g));
  }
  publish_image(nullptr);
}

void ContendedMedium::tick() {
  // Channel accounting for the cycle now elapsing. With foreign carrier
  // live, the tx_end_ high-watermark would bridge silent gaps before a
  // future-start image, so occupancy falls back to the exact interval scan.
  if (remote_live_ == 0 ? busy() : air_busy_at(now_)) ++busy_cycles_;
  for (const Tx& t : on_air_) {
    if (!t.remote && t.end > now_) ++sources_[t.source].airtime;
  }
  ++now_;

  // Latch the perceived carrier state every station samples this cycle. The
  // detection latency shifts the whole perceived window — a frame is
  // audible over [start+latency, end+latency) — so a short control frame is
  // still heard (late) rather than ending before detection ever completed,
  // and every station's idle reference shifts by the same amount.
  const bool was_busy = cca_busy_;
  cca_busy_ = false;
  for (const Tx& t : on_air_) {
    if (perceived(t, now_)) {
      cca_busy_ = true;
      break;
    }
  }
  if (cca_busy_) last_cca_busy_ = now_;
  if (cca_busy_ != was_busy) {
    // Latch edges only ever fall on executed ticks: the quiescence bound
    // stops every skipped stretch strictly before a perceived-window edge.
    DRMP_OBS(rec_, now_,
             cca_busy_ ? obs::EventKind::kCcaBusy : obs::EventKind::kCcaIdle,
             rec_track_);
  }

  // Deliver (or discard) frames whose last byte has now arrived; entries
  // linger until their perceived window closes, then fall away.
  for (std::size_t i = 0; i < on_air_.size();) {
    Tx& t = on_air_[i];
    if (!t.delivered && t.end <= now_) {
      t.delivered = true;
      // Read only by DRMP_OBS, which DRMP_OBS_DISABLE compiles out.
      [[maybe_unused]] const auto frame_bytes = static_cast<i64>(t.frame.size());
      if (trivial()) {
        if (!t.collided) {
          DRMP_OBS(rec_, t.end, obs::EventKind::kDelivery, rec_track_,
                   t.source, frame_bytes);
          deliver(t.frame, t.end, t.source);
        } else if (params_.deliver_garbled) {
          garble(t.frame);
          ++garbled_frames_;
          DRMP_OBS(rec_, t.end, obs::EventKind::kGarbled, rec_track_,
                   t.source, frame_bytes);
          deliver(t.frame, t.end, t.source, /*pre_damaged=*/true);
        } else {
          ++dropped_frames_;
          DRMP_OBS(rec_, t.end, obs::EventKind::kDrop, rec_track_, t.source,
                   frame_bytes);
          // Withheld, but every receiver still heard undecodable energy:
          // the EIFS reference records a damaged reception.
          record_rx_quality(t.source, t.end, /*bad=*/true);
        }
      } else {
        deliver_per_listener(t);
      }
      // Only the perception window is still needed; the bytes go back to
      // the cell arena for the next staged frame.
      arena_.release(std::move(t.frame));
      t.frame = Bytes{};
    }
    if (t.end + cca_latency_ <= now_) {
      // Record the retired window's last perceived cycle for every matrix
      // listener in its footprint (the live-entry scan below can no longer
      // see it). Foreign images are omnidirectional, so the src_idx < 0
      // branch covers them.
      for (std::size_t l = 0; l < last_heard_.size(); ++l) {
        if (t.src_idx < 0 ||
            params_.audibility.hears(l, static_cast<std::size_t>(t.src_idx))) {
          last_heard_[l] = std::max(last_heard_[l], t.end + cca_latency_ - 1);
        }
      }
      if (t.remote) --remote_live_;
      on_air_.erase(on_air_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

bool ContendedMedium::cca_busy(int listener) const noexcept {
  const int li = matrix_index(listener);
  if (li < 0) return cca_busy_;
  const Cycle now = this->now();
  for (const Tx& t : on_air_) {
    if (t.src_idx >= 0 &&
        !params_.audibility.hears(static_cast<std::size_t>(li),
                                  static_cast<std::size_t>(t.src_idx))) {
      continue;
    }
    if (perceived(t, now)) return true;
  }
  return false;
}

Cycle ContendedMedium::cca_idle_for(int listener) const noexcept {
  const int li = matrix_index(listener);
  if (li < 0) return cca_idle_for();
  const Cycle now = this->now();
  Cycle last = last_heard_[static_cast<std::size_t>(li)];
  bool busy_now = false;
  for (const Tx& t : on_air_) {
    if (t.src_idx >= 0 &&
        !params_.audibility.hears(static_cast<std::size_t>(li),
                                  static_cast<std::size_t>(t.src_idx))) {
      continue;
    }
    if (t.start + cca_latency_ > now) continue;  // Onset still scheduled.
    if (now < t.end + cca_latency_) busy_now = true;
    last = std::max(last, std::min(now, t.end + cca_latency_ - 1));
  }
  return busy_now ? 0 : now - last;
}

Cycle ContendedMedium::cca_clear_at() const noexcept {
  // First clock value outside every perceived window [start+lat, end+lat),
  // given what is on the air now. Windows can chain, so advance through
  // them to a fixed point; new transmissions only push the answer later.
  Cycle w = now();
  bool moved = true;
  while (moved) {
    moved = false;
    for (const Tx& t : on_air_) {
      if (t.start + cca_latency_ <= w && w < t.end + cca_latency_) {
        w = t.end + cca_latency_;
        moved = true;
      }
    }
  }
  return w;
}

Cycle ContendedMedium::cca_clear_at(int listener) const noexcept {
  const int li = matrix_index(listener);
  if (li < 0) return cca_clear_at();
  Cycle w = now();
  bool moved = true;
  while (moved) {
    moved = false;
    for (const Tx& t : on_air_) {
      if (t.src_idx >= 0 &&
          !params_.audibility.hears(static_cast<std::size_t>(li),
                                    static_cast<std::size_t>(t.src_idx))) {
        continue;
      }
      if (t.start + cca_latency_ <= w && w < t.end + cca_latency_) {
        w = t.end + cca_latency_;
        moved = true;
      }
    }
  }
  return w;
}

Cycle ContendedMedium::cca_busy_onset_at() const noexcept {
  // Perceived onsets already scheduled by the detection latency: a frame
  // that started at s becomes audible at reading s+latency, with no further
  // begin_tx involved.
  const Cycle now = this->now();
  Cycle onset = sim::Clockable::kIdleForever;
  for (const Tx& t : on_air_) {
    if (t.start + cca_latency_ >= now) {
      onset = std::min(onset, t.start + cca_latency_);
    }
  }
  return onset;
}

Cycle ContendedMedium::cca_busy_onset_at(int listener) const noexcept {
  const int li = matrix_index(listener);
  if (li < 0) return cca_busy_onset_at();
  const Cycle now = this->now();
  Cycle onset = sim::Clockable::kIdleForever;
  for (const Tx& t : on_air_) {
    if (t.src_idx >= 0 &&
        !params_.audibility.hears(static_cast<std::size_t>(li),
                                  static_cast<std::size_t>(t.src_idx))) {
      continue;
    }
    if (t.start + cca_latency_ >= now) {
      onset = std::min(onset, t.start + cca_latency_);
    }
  }
  return onset;
}

Cycle ContendedMedium::quiescent_for() const {
  // Tick effects beyond bulk-accountable occupancy/airtime: frame delivery
  // (first at tick end-1), a perceived-carrier edge (the latch computed with
  // the post-increment clock changes at ticks start+lat-1 and end+lat-1, the
  // latter also retiring the entry). Everything strictly before the nearest
  // such tick is constant-state accounting. now_ equals the index of the
  // next tick at both contract evaluation points.
  if (on_air_.empty()) return sim::Clockable::kIdleForever;
  Cycle next_event = sim::Clockable::kIdleForever;
  for (const Tx& t : on_air_) {
    if (!t.delivered) next_event = std::min(next_event, t.end - 1);
    if (t.start + cca_latency_ >= now_ + 1) {
      next_event = std::min(next_event, t.start + cca_latency_ - 1);
    }
    next_event = std::min(next_event, t.end + cca_latency_ - 1);
  }
  return next_event >= now_ + 1 ? next_event - now_ : 0;
}

void ContendedMedium::skip_idle(Cycle n) {
  // The skipped stretch contains no delivery and no perceived-carrier edge
  // (quiescent_for guarantees it), so the per-tick bookkeeping collapses to
  // interval arithmetic. Per-listener idle views are derived lazily from
  // now_ and the retired-window records, so they need no replay here.
  // Occupancy may still *transition* mid-stretch once foreign carrier is
  // live (a future-start image turning on, or ending, needs no perception
  // edge to bound the skip), so the remote-aware path measures the union of
  // air intervals over the stretch exactly instead of the single busy->idle
  // step account_busy_skip assumes.
  if (remote_live_ == 0) {
    account_busy_skip(n);
  } else {
    std::vector<std::pair<Cycle, Cycle>>& spans = scratch_spans_;
    spans.clear();
    spans.reserve(on_air_.size());
    const Cycle lo = now_, hi = now_ + n;
    for (const Tx& t : on_air_) {
      const Cycle a = std::max(t.start, lo), b = std::min(t.end, hi);
      if (a < b) spans.emplace_back(a, b);
    }
    std::sort(spans.begin(), spans.end());
    Cycle covered = 0, edge = lo;
    for (const auto& [a, b] : spans) {
      const Cycle from = std::max(a, edge);
      if (b > from) covered += b - from;
      edge = std::max(edge, b);
    }
    busy_cycles_ += covered;
  }
  for (const Tx& t : on_air_) {
    if (!t.remote && t.end > now_) {
      sources_[t.source].airtime += std::min(n, t.end - now_);
    }
  }
  now_ += n;
  // Recompute the carrier latch for the post-skip clock; the state is
  // constant across the stretch, so only the final value matters.
  cca_busy_ = false;
  for (const Tx& t : on_air_) {
    if (perceived(t, now_)) {
      cca_busy_ = true;
      break;
    }
  }
  if (cca_busy_) last_cca_busy_ = now_;
}

ContendedMedium::SourceStats ContendedMedium::source(int id) const {
  const auto it = sources_.find(id);
  return it == sources_.end() ? SourceStats{} : it->second;
}


void ContendedMedium::save_state(sim::snap::Writer& w) {
  persist_medium(w);
  persist_contended(w);
}

void ContendedMedium::load_state(sim::snap::Reader& r) {
  persist_medium(r);
  persist_contended(r);
}

}  // namespace drmp::net
