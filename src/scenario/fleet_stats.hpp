// Aggregate statistics of one fleet scenario run.
//
// Two digests with different stability contracts:
//   * completion_digest() covers only counters coupled to MSDU completion
//     (offered/completed/ok/retries/bytes). These are invariant to *when* a
//     lane's clock stops after its workload drains, so lockstep runs that
//     overshoot a drained lane by up to stride-1 cycles produce equal
//     completion digests whatever the stride (lockstep_stride = 1 overshoots
//     by nothing).
//   * full_digest() additionally covers delivery/peer/channel/contention
//     counters and per-lane cycle counts — everything integral. Equal specs
//     must produce equal full digests whatever the worker count and
//     idle-skip setting; that is the determinism contract the tests pin
//     down.
//
// Power estimates (DevicePower) are derived floating-point views of the
// integral busy counters — deterministic for a given build, but kept out of
// both digests so the digest contract stays a pure integer-counter property.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace drmp::scenario {

/// Activity-weighted power estimate of one device over its run, through
/// est::estimate_power with the §6.2 technique sets.
struct DevicePower {
  double raw_mw = 0.0;    ///< No power management (worst case).
  double gated_mw = 0.0;  ///< Clock gating + power shut-off.
  double dvfs_mw = 0.0;   ///< Gating + PSO + half-rate DVFS.
  double cpu_activity = 0.0;  ///< Measured CPU busy fraction.
  double bus_activity = 0.0;  ///< Measured packet-bus busy fraction.
  /// Duty-weighted mean rate fraction from mac::LinkMgr rate adaptation
  /// (1.0 = full rate, or no adaptation).
  double rate_scale = 1.0;
  /// gated_mw re-estimated with measured activity scaled by rate_scale —
  /// the adaptation-aware est::estimate_power report. Equals gated_mw when
  /// rate_scale is 1.0.
  double adapted_mw = 0.0;
};

struct DeviceStats {
  int station_id = 0;
  std::array<u32, kNumModes> offered{};    ///< MSDUs the traffic gen handed over.
  std::array<u64, kNumModes> offered_bytes{};
  std::array<u32, kNumModes> completed{};  ///< on_tx_complete callbacks.
  std::array<u32, kNumModes> tx_ok{};      ///< ... of which successful.
  std::array<u64, kNumModes> retries{};    ///< Summed per-MSDU retry counts.
  std::array<u32, kNumModes> peer_rx{};    ///< Data frames the peer accepted.
  std::array<u64, kNumModes> peer_acks{};  ///< ACK/Imm-ACK frames the peer sent.
  std::array<u64, kNumModes> tampered{};   ///< Frames the channel corrupted.
  // ---- Contention counters (shared-medium cells; zero on point-to-point) --
  std::array<u64, kNumModes> collisions{};  ///< Own transmissions that collided.
  std::array<Cycle, kNumModes> airtime{};   ///< Cycles this station held each band.
  u64 defers = 0;          ///< CSMA deferrals to a busy medium (BackoffRfu).
  u32 rts_sent = 0;        ///< WiFi RTS frames sent.
  u32 cts_received = 0;    ///< WiFi CTS responses received.
  // NAV (virtual carrier sense) counters. Like the power estimates these
  // stay out of both digests: the digest composition is frozen at its PR-3
  // shape so an all-ones audibility matrix (and NAV-off runs generally)
  // reproduce historic digests bit-for-bit. NAV-on runs differ in the
  // mixed counters anyway — equality across execution paths still pins
  // these indirectly through the timeline they shape.
  u64 nav_defers = 0;  ///< Deferrals where only the NAV held (CCA silent).
  u64 nav_arms = 0;    ///< Overheard reservations honoured.
  // Timing-conformance counters (same digest exemption as the NAV set: the
  // digest composition stays frozen at its PR-3 shape).
  u64 nav_resets = 0;  ///< CF-End NAV truncations honoured.
  /// Reservation cycles still pending when the cell clock stopped. Bounded
  /// by the largest announceable Duration field: an expired response must
  /// never strand a reservation past its announced horizon (pinned).
  Cycle nav_hangover = 0;
  u64 frames_expired = 0;     ///< Perishable responses abandoned (all kinds).
  u64 expired_acks = 0;       ///< ... of which SIFS ACKs.
  u64 expired_ctss = 0;       ///< ... of which SIFS CTSs.
  u64 expired_sifs_data = 0;  ///< ... of which SIFS-anchored data.
  u64 eifs_waits = 0;         ///< Pre-contention waits stretched to EIFS.
  // Mobility / link-management counters (mac::LinkMgr; zero on static
  // cells). Same digest exemption as the NAV set — the digest composition
  // stays frozen at its PR-3 shape, which is also what lets a frozen
  // mobility driver reproduce static-cell digests bit-for-bit.
  u64 reassociations = 0;  ///< Completed post-handoff re-exchanges.
  u64 handoffs = 0;        ///< Serving-AP retargets (TopologyDriver).
  u64 rate_shifts = 0;     ///< Rate-adaptation steps taken (both ways).
  u64 link_loss_drops = 0; ///< Traffic MSDUs lost to retry exhaustion.
  u32 rate_index = 0;      ///< Final rate-ladder position (0 = full rate).
  /// Summed handoff-to-reassociated latency over completed handoffs.
  Cycle handoff_latency = 0;
  Cycle cycles_run = 0;
  DevicePower power;

  void mix_completion(sim::Digest& d) const;
  void mix_full(sim::Digest& d) const;
};

/// Channel-level statistics of one shared-medium cell.
struct CellStats {
  u32 cell_index = 0;
  u32 stations = 0;
  std::array<u64, kNumModes> collided_frames{};  ///< All parties counted.
  std::array<u64, kNumModes> dropped_frames{};   ///< Collided, withheld from rx.
  std::array<u64, kNumModes> capture_wins{};     ///< Survived via capture.
  std::array<u64, kNumModes> tampered{};         ///< Channel-corrupted frames.
  std::array<Cycle, kNumModes> busy_cycles{};    ///< Channel occupancy per band.
  /// Air cycles burnt by collided transmissions (outside both digests, like
  /// the NAV counters): 1 - collided/busy is the band's airtime efficiency.
  std::array<Cycle, kNumModes> collided_airtime{};
  std::array<u32, kNumModes> ap_rx{};    ///< Data frames the AP accepted.
  std::array<u64, kNumModes> ap_acks{};  ///< ACKs the AP sent.
  u64 ap_ctss = 0;                       ///< CTS responses the AP sent.
  /// Audibility revisions each band's medium applied (outside both digests,
  /// like the NAV counters; zero on static cells).
  std::array<u64, kNumModes> topology_epochs{};

  void mix_full(sim::Digest& d) const;
};

struct FleetStats {
  std::string scenario_name;
  std::vector<DeviceStats> devices;
  std::vector<CellStats> cells;  ///< One entry per shared-medium cell.
  // ---- Folded-aggregate accounting (ScenarioSpec::fold_device_stats) ----
  // Retired stations chain into these running aggregates instead of living
  // in `devices`: O(cells) live result memory instead of O(devices). Both
  // digest chains are FNV-sequential, so folded devices contribute first and
  // in fold (= cell) order — which is exactly collection order, making the
  // folded digests bit-identical to the retained ones (pinned).
  u64 folded_devices = 0;        ///< Stations folded away so far.
  u64 folded_completion = 0;     ///< Running completion-digest chain state.
  u64 folded_full = 0;           ///< Running full-digest chain state.
  u64 folded_cycles = 0;         ///< Sum of folded stations' cycles_run.
  double folded_raw_mw = 0.0;    ///< Folded power-estimate sums.
  double folded_gated_mw = 0.0;
  double folded_dvfs_mw = 0.0;

  /// Folds one retired station's stats into the running aggregates and both
  /// digest chains; the DeviceStats object can then be dropped. Must be fed
  /// stations in the same order collect() would have appended them.
  void fold_retired(const DeviceStats& ds);
  Cycle lockstep_cycles = 0;  ///< Fleet-clock cycles (max over lanes).
  bool all_drained = false;   ///< Every device finished its workload.
  double wall_seconds = 0.0;  ///< Host time; never part of a digest.
  // Quiescence-skip accounting, summed over lanes. Execution-strategy
  // artefacts, not simulation results: both stay out of the digests and the
  // report so skip-on and skip-off runs compare byte-identical.
  u64 ticks_executed = 0;  ///< Component-ticks actually run.
  u64 ticks_skipped = 0;   ///< Component-ticks replaced by bulk accounting.
  // ---- Observability surface (PR-7). Everything below shares the digest
  // exemption above: the engine's execution profile and the metrics registry
  // must never feed a digest, or skip-on/skip-off and worker-count runs
  // would stop comparing equal.
  /// Hierarchical counter registry: fleet totals unprefixed, per-cell
  /// breakdown under `cell<n>/station<id>/`. The total_*() accessors below
  /// are views over this when populated (with a DeviceStats fallback for
  /// hand-built FleetStats values).
  obs::MetricsRegistry metrics;
  Cycle ff_cycles = 0;  ///< Globally-quiescent cycles crossed by fast-forwards.
  u64 ff_events = 0;    ///< Fast-forward jumps taken.
  u64 wheel_depth_max = 0;        ///< Wake-wheel high-watermark (max over lanes).
  u64 wheel_cascades = 0;         ///< Timing-wheel buckets re-hashed downward.
  u64 wheel_purges = 0;           ///< Stale-majority wake-wheel sweeps.
  u64 medium_ticks_executed = 0;  ///< kStageMedium component-ticks run.
  u64 medium_ticks_skipped = 0;   ///< kStageMedium component-ticks skipped.
  u64 lockstep_rounds = 0;        ///< MultiScheduler rounds.
  u64 lane_rounds_skipped = 0;    ///< Quiescent lane-round skips, summed.
  Cycle lane_stall_cycles = 0;    ///< Cycles lanes sat parked in skipped rounds.
  /// Skipped-to-executed component-tick ratio (the fleet's idle dominance).
  double skip_ratio() const {
    return ticks_executed == 0 ? 0.0
                               : static_cast<double>(ticks_skipped) /
                                     static_cast<double>(ticks_executed);
  }

  u64 device_cycles_total() const;
  /// Fleet throughput: simulated device-cycles per host second.
  double device_cycles_per_sec() const;

  // ---- Fleet energy totals (sums of the per-device estimates) ----
  double fleet_raw_mw() const;
  double fleet_gated_mw() const;
  double fleet_dvfs_mw() const;

  u64 total_collisions() const;
  u64 total_defers() const;
  /// NAV-only deferrals (virtual carrier sense held, CCA silent) fleet-wide.
  u64 total_nav_defers() const;
  /// Pre-contention waits stretched to EIFS fleet-wide.
  u64 total_eifs_waits() const;
  /// Perishable responses abandoned past latest_start fleet-wide.
  u64 total_frames_expired() const;
  // ---- Mobility totals (same metrics-view-with-fallback idiom) ----
  u64 total_reassociations() const;
  u64 total_handoffs() const;
  u64 total_rate_shifts() const;
  u64 total_link_loss_drops() const;
  /// Audibility revisions applied fleet-wide (sum over cells and bands).
  u64 total_topology_epochs() const;
  /// Mean handoff-to-reassociated latency in cycles (0 when none).
  double mean_handoff_latency_cycles() const;

  u64 completion_digest() const;
  u64 full_digest() const;

  /// Deterministic multi-line table (no wall-clock content).
  std::string report() const;
};

}  // namespace drmp::scenario
