// ScenarioEngine — turns a ScenarioSpec into a running multi-cell fleet.
//
// Every CellSpec becomes one net::Cell: its own Scheduler (clock domain), its
// own media — point-to-point with a ScriptedPeer far end, or a shared
// net::ContendedMedium carrying N contending DRMP stations — plus per-station
// traffic generators. Cells share nothing with each other: separate packet
// memories, IRCs, statistics and PRNG streams, so cross-cell isolation holds
// by construction and a cell's results do not depend on fleet composition.
// The lossy-channel model (ScenarioSpec::channel, overridable per cell) is
// applied through the Medium fault injector.
//
// run() advances every cell in MultiScheduler lockstep through the
// scheduler's loop (sleepers are settled where state is observed: at lane
// retirement, checkpoint edges and run exit; see sim/multi_scheduler.hpp),
// with per-cell drained() early-exit predicates evaluated once per stride. Optional worker threads are bit-identical to
// serial, and ScenarioSpec::idle_skip = false runs every cell in the
// scheduler's every-tick mode, the reference the equivalence tests use.
// Completion-coupled statistics are also invariant under the lockstep
// stride (see fleet_stats.hpp).
//
// Co-channel coupling (ScenarioSpec::couplings + CellSpec::coupling_group,
// docs/MULTICELL.md): connected groups get one net::ChannelCoupler each.
// The lockstep stride is clamped to the smallest group horizon in every
// mode, each member lane's early-exit predicate becomes "every cell of the
// group drained" (members retire at one common round edge — their digested
// cycle counts must match the reference), and on the lax path the couplers'
// exchange runs as the MultiScheduler round hook. With coupled_reference
// the engine instead places each connected group on one shared scheduler
// with immediate injection. A group whose reach has no off-diagonal hearing
// is physically isolated and built exactly like uncoupled cells.
#pragma once

#include <memory>
#include <vector>

#include "drmp/device.hpp"
#include "scenario/fleet_stats.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/scheduler.hpp"

namespace drmp::net {
class Cell;
class ChannelCoupler;
}

namespace drmp::scenario {

class ScenarioEngine {
 public:
  explicit ScenarioEngine(ScenarioSpec spec);
  ~ScenarioEngine();

  /// Runs the scenario to completion (or budget exhaustion). One-shot.
  FleetStats run();

  // ---- Checkpoint/resume (sim/checkpoint.hpp) ----
  /// Arms periodic snapshots: at the first lockstep round edge at or past
  /// every multiple of `every` run-relative cycles, the full fleet state is
  /// written into `path` — atomically, via `path + ".tmp"` and a rename, so
  /// the file on disk is always the last *complete* snapshot even if the
  /// process dies mid-write. Incompatible with tracing (flight-recorder
  /// rings are deliberately not serialized). Call before run().
  void checkpoint_every(Cycle every, std::string path);

  /// Restores a snapshot written by checkpoint_every into this freshly
  /// built engine; the following run() continues from the snapshot edge and
  /// reproduces the uninterrupted run's digests bit-for-bit. The engine
  /// must be built from the same scenario — seed, stride, cells, stations
  /// and couplings are fingerprint-checked — while the execution strategy
  /// (worker_threads, idle_skip) may differ freely, exactly as the digest
  /// contract allows. Throws sim::snap::SnapshotError subtypes on malformed
  /// or mismatched snapshots; on throw no partial state sticks (the engine
  /// must be discarded). Call before run().
  void resume(const std::string& path);

  /// The lockstep cycle the engine will resume from (0 unless resume() ran).
  Cycle resume_base() const noexcept { return resume_base_; }

  const ScenarioSpec& spec() const noexcept { return spec_; }
  std::size_t cell_count() const noexcept { return cells_.size(); }
  /// Total stations across all cells.
  std::size_t device_count() const noexcept;
  net::Cell& cell(std::size_t i);
  /// Station access by fleet-global index (0-based, cells in order).
  DrmpDevice& device(std::size_t i);

  /// The lockstep stride actually used: the spec's, clamped to the smallest
  /// connected coupling group's horizon (identical on both coupling modes —
  /// the digested lockstep cycle count depends on it).
  Cycle effective_stride() const noexcept;

  /// True when the spec asked for flight recorders (TraceSpec::enabled).
  bool tracing() const noexcept;
  /// Chrome trace-event JSON over every cell's recorder (Perfetto-viewable).
  /// Valid any time; empty event list when tracing is off.
  std::string chrome_trace() const;
  /// Deterministic protocol-domain text timeline (the golden-test surface).
  std::string text_timeline() const;

 private:
  /// One coupling group's resolved shape (members in reach-index order).
  struct Group {
    std::vector<std::size_t> members;
    bool connected = false;
    Cycle horizon = 1;
  };

  void resolve_couplings();
  void build_couplers();
  FleetStats collect(Cycle lockstep_cycles, bool all_drained, double wall_seconds) const;
  /// Spec identity the resume() check pins: seed, stride, coupling shape and
  /// the per-cell topology/station layout — everything that shapes the
  /// simulated timeline, nothing that is pure execution strategy.
  u64 fingerprint() const;
  void write_snapshot(Cycle lockstep_now) const;

  /// Lockstep execution profile captured by run() for collect().
  struct RunProfile {
    u64 rounds = 0;
    u64 lane_rounds_skipped = 0;
    Cycle lane_stall_cycles = 0;
  };

  /// One scripted reach revision, quantized up to a lockstep round edge.
  struct ReachEvent {
    Cycle edge = 0;
    std::size_t coupler = 0;  ///< Index into couplers_.
    net::AudibilityMatrix reach;
  };

  ScenarioSpec spec_;
  std::vector<Group> groups_;
  RunProfile run_profile_;
  std::vector<ReachEvent> reach_events_;  ///< Sorted by edge.
  std::size_t reach_applied_ = 0;
  Cycle hook_edge_ = 0;  ///< Last round edge the round hook processed.
  /// Reference-mode shared clock domains, one per connected group (null
  /// otherwise). Declared before cells_: components die before their clock.
  std::vector<std::unique_ptr<sim::Scheduler>> group_scheds_;
  std::vector<std::unique_ptr<net::Cell>> cells_;
  std::vector<std::unique_ptr<net::ChannelCoupler>> couplers_;
  bool ran_ = false;
  Cycle checkpoint_every_ = 0;  ///< 0 = checkpointing off.
  std::string checkpoint_path_;
  Cycle resume_base_ = 0;  ///< Lockstep cycle the restored state sits at.
};

}  // namespace drmp::scenario
