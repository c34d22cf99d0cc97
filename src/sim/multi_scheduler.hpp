// MultiScheduler — lockstep advancement of many per-device schedulers.
//
// The scenario engine gives every DRMP device its own Scheduler (its own
// clock domain, component list and statistics). A fleet run advances all of
// them in lockstep: time moves in strides of `stride` cycles, and within one
// stride every active lane runs the same cycle interval through the
// scheduler's loop. After each stride the per-lane early-exit predicate
// is evaluated once; a lane whose predicate fired stops ticking (its device
// has drained its workload) while the rest of the fleet continues. Evaluating
// predicates once per stride — instead of after every executed cycle as
// run_until does — is what keeps an 8-64 device fleet out of std::function
// dispatch on the per-cycle path.
//
// Lanes share no Clockables, so within a round each lane's results are its
// own and the stride only bounds how far one lane's clock may lead
// another's. Cross-lane *events* are still possible — channel couplers
// exchange them at round edges through set_round_hook (Graphite-style lax
// synchronization): a round hook may inject state into any lane as long as
// the injected effects land at or after the round edge, which holds
// whenever the stride is at most the physical interaction horizon (see
// net/channel_coupler.hpp). Uncoupled fleets never set the hook and keep
// the original fully-independent behaviour.
//
// Quiescence-aware round skipping: after each run a lane's scheduler
// publishes next_wake() — the earliest cycle any of its components could
// execute a real tick. A lane whose wake lies beyond the round's target is
// not dispatched at all (not even for a fast-forward call); the cycles it
// owes accumulate and are replayed in one call the moment its wake falls
// inside a round (or at run exit, so lane clocks still line up with the
// lockstep clock). Between rounds a lane is mutated only through wake_self()
// (which collapses its hint to now()) and read only by its done-predicate,
// which must be a pure read of completion state, so the skip decision is
// exact and the results remain bit-identical to dispatching every round —
// with any worker count.
//
// Lanes are driven through the scheduler's private loop, which keeps wake
// state between calls and leaves sleepers unsettled (see sim/scheduler.hpp):
// a dispatch costs O(woken). A lane is settled where its state is observed —
// when it retires, before the edge hook, and when run() returns.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "sim/scheduler.hpp"

namespace drmp::sim {

class MultiScheduler {
 public:
  /// Fires once a lane's workload is drained; evaluated once per stride.
  using DonePredicate = std::function<bool()>;

  static constexpr Cycle kDefaultStride = 1024;

  /// Registers a device scheduler as a lane. A null predicate means the lane
  /// runs for the full cycle budget. Returns the lane index.
  std::size_t add(Scheduler& sched, DonePredicate done = nullptr);

  /// Installs a hook invoked on the calling thread at the end of every
  /// lockstep round, after lanes ran and retirements were decided (workers
  /// are parked on the barrier). This is the lax-synchronization exchange
  /// point: cross-lane event couplers (net::ChannelCoupler) drain their
  /// outboxes here, so anything one lane generated in the round just ended
  /// is visible to its peers before any lane enters the next round. The
  /// hook may mutate lane components after waking them (Clockable::wake_self
  /// between runs catches the component up to its lane's clock, re-inserts
  /// it and resets the lane's next_wake hint, so a round-skipped lane is
  /// dispatched again); it must schedule effects only at or after the
  /// current round edge, or bit-identity across worker counts is lost.
  void set_round_hook(std::function<void()> hook) { round_hook_ = std::move(hook); }

  /// Installs a hook fired at the first round edge at or past every multiple
  /// of `every` run-relative cycles, after the round hook, with workers
  /// parked. Before it fires, every still-active lane's deferred cycles are
  /// flushed and settled (skipped rounds are provably no-op replays, so
  /// flushing early is bit-identical), which puts *every* lane — retired
  /// lanes were flushed at retirement — exactly on the lockstep edge with
  /// every component caught up: the quiescent state the
  /// checkpoint machinery (scenario::ScenarioEngine::checkpoint_every)
  /// snapshots. The hook receives the run-relative elapsed cycle count and
  /// must not advance any lane.
  void set_edge_hook(Cycle every, std::function<void(Cycle)> hook) {
    edge_every_ = every;
    edge_hook_ = std::move(hook);
  }

  struct RunResult {
    Cycle cycles = 0;              ///< Lockstep cycles elapsed (max over lanes).
    std::size_t lanes_finished = 0;  ///< Lanes whose predicate fired.
    bool all_finished = false;       ///< Every predicated lane finished.
    u64 rounds = 0;                  ///< Lockstep rounds executed.
  };

  /// Advances all lanes in lockstep until every predicate fired or
  /// `max_cycles` elapsed. `stride` is the lockstep granularity: a finished
  /// lane overshoots its predicate by at most stride-1 cycles.
  ///
  /// `workers` > 1 advances the lanes of each stride round on a persistent
  /// pool of that many threads (spawned once per run, parked on a barrier
  /// between rounds); a round with fewer than two due lanes runs inline on
  /// the calling thread without releasing the pool. Lanes are independent
  /// clock domains sharing no state, and predicates run on the calling
  /// thread while workers are parked, so the result is bit-identical to the
  /// single-threaded run — only wall-clock time changes.
  RunResult run(Cycle max_cycles, Cycle stride = kDefaultStride,
                unsigned workers = 1);

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  bool lane_finished(std::size_t i) const { return lanes_[i].finished; }
  /// Cycles this lane actually ran across all run() calls.
  Cycle lane_cycles(std::size_t i) const { return lanes_[i].cycles_run; }
  // ---- Lane-stall profile (bench surface): quiescence-aware round skips ----
  /// Rounds this lane was not dispatched because its next_wake lay past the
  /// round target.
  u64 lane_rounds_skipped(std::size_t i) const {
    return lanes_[i].rounds_skipped;
  }
  /// Cycles this lane spent parked in skipped rounds (later replayed).
  Cycle lane_stall_cycles(std::size_t i) const {
    return lanes_[i].stall_cycles;
  }

 private:
  struct Lane {
    Scheduler* sched;
    DonePredicate done;
    bool finished = false;
    Cycle cycles_run = 0;
    u64 rounds_skipped = 0;
    Cycle stall_cycles = 0;
  };

  std::vector<Lane> lanes_;
  std::function<void()> round_hook_;
  std::function<void(Cycle)> edge_hook_;
  Cycle edge_every_ = 0;
};

}  // namespace drmp::sim
