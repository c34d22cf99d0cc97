// Cycle-stepped simulation scheduler with quiescence-aware batching.
//
// The DRMP prototype was modelled in Simulink at "cycle-approximate"
// abstraction (thesis Ch. 5). This kernel reproduces that abstraction: every
// registered component exposes tick(), invoked once per architecture-clock
// cycle in a fixed deterministic order. Components communicate through plain
// member state sampled at tick boundaries; the fixed tick order replaces
// Simulink's dataflow ordering.
//
// Tick order is organised in *stages*: all components of a lower stage tick
// before any component of a higher stage, and within a stage registration
// order is preserved (stable sort). Every add() defaults to kStageDefault, so
// a scheduler built without explicit stages ticks in exact registration order
// — identical to the original single-vector kernel. Stages let fleet
// assemblers (scenario engine, multi-device testbenches) express "media
// before devices before observers" without depending on construction order.
//
// One loop advances the clock, behind two entry points: run_cycles(n) and
// run_until(done, max). Components that declare themselves quiescent are
// *not ticked* until their declared bound expires or an external input
// wakes them. Skipped ticks are bulk-accounted through Clockable::skip_idle,
// so every counter and statistic ends up cycle-for-cycle identical to
// ticking every component every cycle — including now() as observed from
// inside a tick.
//
// The wake state — the active set, the timing wheel of sleepers' bounds and
// the per-component sleep records — persists from one run to the next, so a
// run boundary costs O(woken), not O(components). It is rebuilt from every
// component's quiescent_for() only when it is invalid: before the first
// run, after a late add() (which re-freezes the stage-ordered array), after
// an idle-skip toggle, and after load_state. A sleeper's stored bound is
// never re-queried at a boundary; next_wake() is derived from the stored
// bounds and the eager components' own.
//
// Settling catches every sleeper up to now() in bulk (skip_idle of what it
// owes) without waking it: its wheel entry stays valid. It is a separate
// step, taken only where component state is observed: before run_cycles and
// run_until return, in save_state, and by MultiScheduler, which drives lanes
// through the private loop and settles a lane when it retires, before the
// checkpoint edge hook and when its run() returns. Between those points a
// sleeper's counters and internal clocks may lag now().
//
// set_idle_skip(false) selects every-tick mode of the same loop: every
// component is ticked every cycle and nothing ever sleeps. It is the
// reference the equivalence tests compare the skipping mode against.
//
// run_until's predicate is evaluated at entry, after every executed cycle
// and at every fast-forward landing, never inside a skipped stretch. It must
// therefore read state that changes inside a tick (completion counters,
// delivered frames) or at an eager component's bound; it then fires on the
// same cycle in both modes.
//
// ---- The quiescence contract ----
//
// MAC workloads are idle-dominated: the paper's power argument (clock
// gating, PSO, Fig. 5.12 state occupation) rests on components spending most
// cycles quiescent. The scheduler exploits the same property. A component
// may override:
//
//   * quiescent_for() — a conservative bound Q: "my next Q tick() calls
//     would be no-ops (absent external input); you may replace them with one
//     skip_idle(Q)". 0 means "tick me next cycle"; kIdleForever means
//     "skippable until woken". The scheduler calls it only at well-defined
//     points — immediately after the component's own tick(), or with the
//     component fully caught up when the wake state is rebuilt (and, for
//     eager components, at the end of a run) — so implementations may
//     assume their internal clocks equal the index of their next tick.
//     Under-estimating Q is always safe (the component wakes, ticks once,
//     and may sleep again); over-estimating breaks bit-identity.
//   * skip_idle(n) — bulk-account n skipped ticks: advance internal cycle
//     counters and fold n samples into busy/occupancy statistics. After
//     skip_idle(n) the component must be in exactly the state n no-op
//     tick() calls would have produced.
//   * global_skip_only() — return true to make the component *eager*:
//     ticked every cycle while anything else is awake and skipped only
//     across globally-quiescent gaps, where no observer can run. Only the
//     point-to-point phy::Medium still is (see its comment). A component
//     whose externally read state is time-derived need not be eager: while
//     it sleeps it can derive that state from its own clock plus
//     ticks_owed() — the ticks it has skipped but not yet accounted, so
//     the clock reads as every-tick mode would show it — as
//     net::ContendedMedium does for now() and its CCA views.
//
// Wake invalidation: a quiescence bound is conditional on "no external
// input". Every path that delivers input to a potentially-sleeping component
// (bus trigger push, interrupt/host-request/timer arm, medium begin_tx and
// frame delivery, Tx/Rx buffer pushes, IRC submissions, doorbell writes)
// must call wake_self() on the target before mutating it — inside a run and
// between runs alike, since a run boundary does not re-read sleepers' bounds.
// The scheduler then catches the component up (bulk-accounting the cycles
// it slept) and re-inserts it into the active set — in the *current* cycle
// when its tick slot has not yet passed this cycle (or between runs), from
// the next cycle otherwise, which is exactly when every-tick mode would
// first observe the input. skip_idle implementations must not wake other
// components.
//
// Globally-quiescent gaps: when every component is quiescent, the scheduler
// fast-forwards now_ to the earliest wake bound (the timing wheel below holds
// sleeping components' bounds), bulk-accounting the gap into every eager
// component immediately so no eager state is ever stale at a cycle where
// anything runs.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/clock.hpp"

namespace drmp::sim {

class Scheduler;

namespace snap {
class Writer;
class Reader;
}  // namespace snap

/// Sleep-bound helper for components gated on a clock they read one ahead:
/// media lead the cycle, so a tick at cycle u reads a medium clock of u+1,
/// and the first tick observing `reading` is reading-1. Returns the count
/// of skippable ticks strictly before that tick, given the caller's next
/// tick index (== its reference clock at both contract evaluation points).
/// Single-sourcing the +2/-1 conversion matters: an off-by-one over-
/// estimate at any call site silently breaks bit-identity.
constexpr Cycle ticks_until_reading(Cycle reading, Cycle next_tick) noexcept {
  return reading >= next_tick + 2 ? reading - 1 - next_tick : 0;
}

/// Anything driven by the architecture clock.
class Clockable {
 public:
  virtual ~Clockable() = default;
  virtual void tick() = 0;

  /// Sentinel bound: quiescent until externally woken.
  static constexpr Cycle kIdleForever = ~Cycle{0};

  /// Conservative count of upcoming tick() calls that are no-ops (see the
  /// header comment). The default — never quiescent — is always correct.
  virtual Cycle quiescent_for() const { return 0; }

  /// Bulk-accounts `n` skipped ticks. Must be overridden (together with
  /// quiescent_for) by any component that can report a non-zero bound.
  virtual void skip_idle(Cycle n) { (void)n; }

  /// True for an eager component (see the header comment): tick every
  /// cycle, skip only in global gaps. Only the point-to-point medium is.
  virtual bool global_skip_only() const { return false; }

  /// Invalidates this component's quiescence bound: external input arrived.
  /// Safe to call at any time (no-op when awake, unregistered, or outside a
  /// run). Defined in scheduler.cpp.
  void wake_self() noexcept;

  /// Skipped ticks not yet bulk-accounted: how far this component's own
  /// clock lags the one every-tick mode would show a caller right now. 0
  /// while awake, unregistered and in every-tick mode. A sleeping component
  /// whose clock others read (a contended medium) adds it to its own.
  /// Defined after Scheduler below.
  Cycle ticks_owed() const noexcept;

 private:
  friend class Scheduler;
  Scheduler* wake_sched_ = nullptr;  ///< Owning scheduler (set by freeze()).
  u32 wake_index_ = 0;               ///< Position in the frozen stage array.
};

/// Execution-domain introspection callbacks. sim/ stays ignorant of the
/// observability layer (src/obs/ may include sim/, never the reverse); the
/// flight recorder attaches through this interface to record skip spans and
/// fast-forwards. Callbacks fire only with idle-skip on, on the thread
/// running the scheduler, and must not mutate simulation state.
class SchedulerObserver {
 public:
  virtual ~SchedulerObserver() = default;
  /// `name`'s skipped stretch [from, from+len) was settled in bulk.
  virtual void on_skip_span(std::string_view name, Cycle from, Cycle len) = 0;
  /// A globally-quiescent gap [from, from+len) was crossed in one jump.
  virtual void on_fast_forward(Cycle from, Cycle len) = 0;
};

/// Always-on profile of a scheduler's execution (bench surface).
struct SchedulerProfile {
  struct Stage {
    int stage = 0;
    u64 executed = 0;  ///< Component-ticks run by components of this stage.
    u64 skipped = 0;   ///< Component-ticks replaced by skip_idle.
  };
  u64 ticks_executed = 0;
  u64 ticks_skipped = 0;
  Cycle ff_cycles = 0;          ///< Cycles crossed by fast-forward jumps.
  u64 ff_events = 0;            ///< Number of fast-forward jumps.
  u64 wheel_depth_max = 0;      ///< Wake-wheel high-watermark (live + stale).
  u64 wheel_cascades = 0;       ///< Timing-wheel buckets re-hashed downward.
  u64 wheel_purges = 0;         ///< Stale-majority lazy-deletion sweeps.
  std::array<u64, 65> ff_gap_log2{};  ///< Jump lengths by bit width.
  std::vector<Stage> stages;          ///< Sorted by stage id.
};

/// Flat membership bitmap over the frozen component array: O(1) insert and
/// erase, cache-linear iteration in frozen (stage) order. Replaces the
/// std::set the active set grew up as — at fleet scale the per-cycle loop
/// walks one cached word per 64 components instead of chasing red-black
/// tree nodes.
class ActiveSet {
 public:
  void reset(std::size_t n) { words_.assign((n + 63) / 64, 0); }
  void insert(u32 i) noexcept { words_[i >> 6] |= u64{1} << (i & 63); }
  void erase(u32 i) noexcept { words_[i >> 6] &= ~(u64{1} << (i & 63)); }
  std::size_t word_count() const noexcept { return words_.size(); }
  u64 word(std::size_t k) const noexcept { return words_[k]; }

 private:
  std::vector<u64> words_;
};

/// Bucketed hierarchical timing wheel for sleeping components' wake bounds:
/// O(1) push, O(occupied) advance, with far-future bounds parked on a flat
/// overflow level. Replaces the binary-heap wake wheel, whose log-depth
/// sift-downs and one-at-a-time stale pops dominated the scheduler loop on
/// wake-heavy cells.
///
/// Layout: kLevels levels of 64 slots; a slot at level l spans 2^(6l)
/// cycles, so the wheel covers kSpan = 2^(6*kLevels) cycles past `base_`.
/// Entries hash by the absolute wake time's level-l digit; a per-level
/// occupancy word makes "earliest occupied slot" one bit-scan. advance()
/// walks base_ through successive next_bound() stops, cascading each
/// higher-level bucket it enters strictly downward until due entries drain
/// out of level 0. Deletion is lazy: the scheduler's generation check
/// rejects stale entries at drain time, and purge() sweeps them out when
/// they become the majority.
///
/// next_bound() is a *lower* bound on the earliest stored wake time — exact
/// at level 0, a bucket floor above — which is safe for fast-forwarding
/// because skip chunking is additive by the quiescence contract: a gap
/// crossed in several hops lands on the same cycle with the same state.
class TimingWheel {
 public:
  struct Entry {
    Cycle wake_at;
    u32 index;
    u32 gen;
  };

  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = 64;
  static constexpr Cycle kSpan = Cycle{1} << (kLevels * kSlotBits);
  static constexpr Cycle kNever = ~Cycle{0};

  /// Drops every entry and rebases the wheel (O(occupied buckets); bucket
  /// capacity is retained, so steady-state re-entry allocates nothing).
  void reset(Cycle base) {
    for (int l = 0; l < kLevels; ++l) {
      u64 bits = occ_[l];
      while (bits != 0) {
        buckets_[l][static_cast<std::size_t>(std::countr_zero(bits))].clear();
        bits &= bits - 1;
      }
      occ_[l] = 0;
    }
    overflow_.clear();
    overflow_min_ = kNever;
    base_ = base;
    size_ = 0;
  }

  /// Stores a bound. Requires wake_at > the base advance() last settled on
  /// (the scheduler always pushes strictly-future bounds).
  void push(Cycle wake_at, u32 index, u32 gen) {
    ++size_;
    place(Entry{wake_at, index, gen});
  }

  /// Moves the wheel to `now`, invoking `due` on every entry whose wake
  /// time has arrived (in bucket order; the scheduler's gen check makes
  /// drain order irrelevant). Requires now >= the previous advance point.
  template <typename F>
  void advance(Cycle now, F&& due) {
    while (base_ < now) {
      const Cycle nb = next_bound();
      if (nb > now) {
        base_ = now;
        return;
      }
      base_ = nb;
      service(due);
    }
  }

  /// Lower bound (> the current base) on the earliest stored wake time;
  /// kNever when empty. Valid after advance() caught the wheel up to now.
  Cycle next_bound() const noexcept {
    Cycle nb = overflow_min_;
    if (occ_[0] != 0) {
      const u64 c = base_ & 63;
      const u64 hi = occ_[0] & ~((u64{2} << c) - 1);
      const Cycle frame0 = base_ & ~Cycle{63};
      nb = std::min(nb, hi != 0 ? frame0 + static_cast<Cycle>(std::countr_zero(hi))
                                : frame0 + 64 +
                                      static_cast<Cycle>(std::countr_zero(occ_[0])));
    }
    for (int l = 1; l < kLevels; ++l) {
      if (occ_[l] == 0) continue;
      const int shift = kSlotBits * l;
      const Cycle width = Cycle{1} << shift;
      const Cycle frame = width << kSlotBits;
      const Cycle frame_base = base_ & ~(frame - 1);
      const u64 c = (base_ >> shift) & 63;
      const u64 hi = occ_[l] & ~((u64{2} << c) - 1);
      nb = std::min(nb, hi != 0
                            ? frame_base + width * static_cast<Cycle>(
                                               std::countr_zero(hi))
                            : frame_base + frame +
                                  width * static_cast<Cycle>(
                                              std::countr_zero(occ_[l])));
    }
    return nb;
  }

  /// Exact earliest wake time among the entries `live` accepts; kNever when
  /// there is none. Walks each level's buckets in time order (the slots
  /// after the base's, then the next frame's) and stops at the first bucket
  /// holding a live entry, so the cost is one bucket per level plus the
  /// stale entries ahead of it.
  template <typename P>
  Cycle earliest(P&& live) const {
    Cycle best = kNever;
    for (int l = 0; l < kLevels; ++l) {
      const auto c = static_cast<int>((base_ >> (kSlotBits * l)) & 63);
      u64 order = std::rotr(occ_[static_cast<std::size_t>(l)], c + 1);
      while (order != 0) {
        const auto s = static_cast<std::size_t>((std::countr_zero(order) + c + 1) & 63);
        order &= order - 1;
        Cycle first = kNever;
        for (const Entry& e : buckets_[static_cast<std::size_t>(l)][s]) {
          if (live(e)) first = std::min(first, e.wake_at);
        }
        if (first != kNever) {
          best = std::min(best, first);
          break;
        }
      }
    }
    if (overflow_min_ < best) {
      for (const Entry& e : overflow_) {
        if (live(e)) best = std::min(best, e.wake_at);
      }
    }
    return best;
  }

  /// Filters out entries `keep` rejects (the scheduler's stale predicate).
  template <typename P>
  void purge(P&& keep) {
    for (int l = 0; l < kLevels; ++l) {
      u64 bits = occ_[l];
      while (bits != 0) {
        const auto s = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        filter(buckets_[l][s], keep);
        if (buckets_[l][s].empty()) occ_[l] &= ~(u64{1} << s);
      }
    }
    filter(overflow_, keep);
    overflow_min_ = kNever;
    for (const Entry& e : overflow_) overflow_min_ = std::min(overflow_min_, e.wake_at);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  u64 cascades() const noexcept { return cascades_; }

 private:
  /// Requires e.wake_at > base_ (due entries are drained before placement).
  void place(const Entry& e) {
    const Cycle delta = e.wake_at - base_;
    if (delta >= kSpan) {
      overflow_.push_back(e);
      overflow_min_ = std::min(overflow_min_, e.wake_at);
      return;
    }
    const int l = (std::bit_width(delta) - 1) / kSlotBits;
    const auto s =
        static_cast<std::size_t>((e.wake_at >> (kSlotBits * l)) & 63);
    buckets_[static_cast<std::size_t>(l)][s].push_back(e);
    occ_[static_cast<std::size_t>(l)] |= u64{1} << s;
  }

  /// Drains / cascades everything anchored at base_ (called at each
  /// next_bound() stop): refills overflow entries inside the horizon,
  /// cascades every higher-level bucket whose window opens here strictly
  /// downward, then hands the level-0 bucket — whose entries are all due
  /// exactly now — to `due`.
  template <typename F>
  void service(F&& due) {
    if (!overflow_.empty() && overflow_min_ - base_ < kSpan) refill(due);
    for (int l = kLevels - 1; l >= 1; --l) {
      const int shift = kSlotBits * l;
      if ((base_ & ((Cycle{1} << shift) - 1)) != 0) continue;
      const auto s = static_cast<std::size_t>((base_ >> shift) & 63);
      auto& b = buckets_[static_cast<std::size_t>(l)][s];
      if (b.empty()) continue;
      occ_[static_cast<std::size_t>(l)] &= ~(u64{1} << s);
      scratch_.clear();
      scratch_.insert(scratch_.end(), b.begin(), b.end());
      b.clear();
      ++cascades_;
      for (const Entry& e : scratch_) {
        if (e.wake_at <= base_) {
          --size_;
          due(e);
        } else {
          place(e);
        }
      }
    }
    const auto s0 = static_cast<std::size_t>(base_ & 63);
    if ((occ_[0] >> s0 & 1) != 0) {
      auto& b = buckets_[0][s0];
      occ_[0] &= ~(u64{1} << s0);
      scratch_.clear();
      scratch_.insert(scratch_.end(), b.begin(), b.end());
      b.clear();
      for (const Entry& e : scratch_) {
        --size_;
        due(e);  // Level-0 residents here are due at exactly base_.
      }
    }
  }

  template <typename F>
  void refill(F&& due) {
    Cycle new_min = kNever;
    std::size_t w = 0;
    for (const Entry& e : overflow_) {
      if (e.wake_at <= base_) {
        --size_;
        due(e);
      } else if (e.wake_at - base_ < kSpan) {
        place(e);
      } else {
        new_min = std::min(new_min, e.wake_at);
        overflow_[w++] = e;
      }
    }
    overflow_.resize(w);
    overflow_min_ = new_min;
  }

  template <typename P>
  void filter(std::vector<Entry>& v, P&& keep) {
    std::size_t w = 0;
    for (const Entry& e : v) {
      if (keep(e)) v[w++] = e;
    }
    size_ -= v.size() - w;
    v.resize(w);
  }

  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> buckets_{};
  std::array<u64, kLevels> occ_{};
  std::vector<Entry> overflow_;  ///< wake_at >= base_ + kSpan, unsorted.
  Cycle overflow_min_ = kNever;
  std::vector<Entry> scratch_;  ///< Cascade staging (capacity retained).
  Cycle base_ = 0;
  std::size_t size_ = 0;
  u64 cascades_ = 0;
};

class Scheduler {
 public:
  /// Stage of every add() that does not ask for one. Components that must
  /// tick before the default population (shared media) use a negative stage;
  /// pure observers (probes, traffic sinks) use a positive one.
  static constexpr int kStageDefault = 0;
  static constexpr int kStageMedium = -1;   ///< Shared media lead the cycle.
  static constexpr int kStageObserver = 1;  ///< Probes sample the completed cycle.

  explicit Scheduler(Hz arch_freq) : timebase_(arch_freq) {}

  /// Registers a component; tick order is (stage, registration order).
  /// Throws std::logic_error while a run is in progress (from inside a
  /// tick, say): the frozen component array would not see the component.
  void add(Clockable& c, std::string name, int stage = kStageDefault);

  /// Advances the simulation by n architecture cycles.
  void run_cycles(Cycle n);

  /// Runs until `done()` returns true or `max_cycles` elapse (whichever is
  /// first). Returns true iff the predicate fired. See the header comment
  /// for where the predicate is evaluated and what it may read.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

  /// Disables quiescence-aware skipping: every component is ticked every
  /// cycle (every-tick mode, the reference the equivalence tests compare
  /// against). Toggling between runs settles sleepers and invalidates the
  /// wake state, and the published next_wake() hint — the bound was
  /// computed under the other policy — collapses to now(): always safe (a
  /// dispatched lane with nothing to do just fast-forwards), never stale.
  void set_idle_skip(bool enabled);
  bool idle_skip() const noexcept { return idle_skip_; }

  /// Earliest cycle at which any component might execute a real tick, as
  /// established at the end of the last run from the stored wake bounds:
  /// now() when anything is awake, kIdleForever when every component is
  /// quiescent indefinitely. A wake_self() collapses it to now().
  /// MultiScheduler uses it to skip lockstep rounds for quiescent lanes.
  Cycle next_wake() const noexcept { return next_wake_; }

  Cycle now() const noexcept { return now_; }
  const TimeBase& timebase() const noexcept { return timebase_; }
  double now_us() const noexcept { return timebase_.cycles_to_us(now_); }

  std::size_t component_count() const noexcept { return entries_.size(); }
  /// Name / stage by registration index.
  const std::string& component_name(std::size_t i) const { return names_[i]; }
  int component_stage(std::size_t i) const { return entries_[i].stage; }

  // ---- Idle-skip instrumentation (bench/report surface) ----
  /// Component-ticks actually executed.
  u64 ticks_executed() const noexcept { return ticks_executed_; }
  /// Component-ticks replaced by skip_idle bulk accounting.
  u64 ticks_skipped() const noexcept { return ticks_skipped_; }
  /// Cycles crossed by globally-quiescent fast-forward jumps.
  Cycle cycles_fast_forwarded() const noexcept { return ff_cycles_; }

  /// Aggregated per-stage execution profile (see SchedulerProfile). Cheap
  /// enough to keep always-on: the hot path pays one array increment per
  /// executed tick.
  SchedulerProfile profile() const;

  /// Attaches (or detaches, with nullptr) an execution-domain observer.
  void set_observer(SchedulerObserver* o) noexcept { observer_ = o; }

  // ---- Checkpoint (sim/checkpoint.hpp) ----
  /// Persists the clock and execution counters. Legal only between runs;
  /// settles sleepers first, so every component's own record is exact at
  /// now(). The wake state (active set, wake wheel, per-component sleep
  /// records) is not persisted: it is derived from component bounds, and
  /// load_state invalidates it so the next run rebuilds it from the
  /// restored components. load_state also collapses next_wake() to now(),
  /// which is always safe and never stale (the set_idle_skip argument).
  void save_state(snap::Writer& w);
  void load_state(snap::Reader& r);

 private:
  /// The one advance loop behind run_cycles, run_until and MultiScheduler:
  /// runs until `limit` or until `*done` (when given) fires; returns true
  /// iff it fired. Leaves sleepers unsettled.
  bool advance(Cycle limit, const std::function<bool()>* done);
  /// Rebuilds the contiguous stage-ordered execution array.
  void freeze();
  /// Idle-skip mode's step: one executed cycle over the awake set, or one
  /// fast-forward hop across a globally-quiescent gap (never past `limit`).
  void skip_step(Cycle limit);
  /// Rebuilds the wake state from every component's quiescent_for().
  void partition();
  /// Catches every sleeper up to now_ without waking it.
  void settle();
  /// Publishes next_wake() from the stored bounds and the eager components.
  void publish_next_wake();
  /// Catches a sleeping component up and re-inserts it into the active set.
  void wake_component(u32 idx);
  /// Skipped ticks frozen component `idx` owes at this instant (see
  /// Clockable::ticks_owed): the cycles wake_component would account.
  Cycle owed(u32 idx) const noexcept {
    if (!wake_valid_) return 0;
    const CompState& st = states_[idx];
    if (!st.sleeping) return 0;
    return now_ - st.slept_from + (in_cycle_ && idx <= cursor_ ? 1 : 0);
  }
  /// Bulk-accounts `owed` skipped ticks of frozen component `idx` from
  /// cycle `from`.
  void account_skip(u32 idx, Cycle from, Cycle owed);
  friend class Clockable;
  friend class MultiScheduler;

  struct Entry {
    Clockable* component;
    int stage;
  };

  /// Per-component quiescence state, parallel to batch_; valid while
  /// wake_valid_.
  struct CompState {
    bool eager = false;    ///< global_skip_only(): tick unless global gap.
    bool sleeping = false;
    bool in_wheel = false;  ///< A live wheel entry exists for this sleep.
    u32 gen = 0;            ///< Invalidates stale wake-wheel entries.
    Cycle slept_from = 0;   ///< First skipped tick cycle.
  };

  /// Eagerly sweep the wheel when stale entries both exceed this floor and
  /// outnumber live ones — bounding wheel depth on wake-heavy workloads
  /// without paying a sweep for isolated early wakes.
  static constexpr std::size_t kPurgeMinStale = 64;

  static constexpr std::size_t kNoCursor = ~std::size_t{0};

  /// Drains due wheel entries at now_ and purges when stale entries
  /// dominate (the lazy-deletion leak fix).
  void drain_wheel();
  /// True while `e` is the wheel entry of its component's current sleep.
  bool live(const TimingWheel::Entry& e) const noexcept {
    const CompState& st = states_[e.index];
    return st.sleeping && st.gen == e.gen;
  }

  TimeBase timebase_;
  Cycle now_ = 0;
  std::vector<Entry> entries_;  ///< Registration order.
  std::vector<std::string> names_;
  std::vector<Clockable*> batch_;  ///< Stage-ordered, rebuilt when dirty.
  bool batch_dirty_ = false;

  bool idle_skip_ = true;
  bool in_run_ = false;
  bool in_cycle_ = false;
  std::size_t cursor_ = kNoCursor;  ///< Frozen index currently ticking.
  bool wake_valid_ = false;  ///< states_/active_/wheel_ describe batch_.
  std::vector<CompState> states_;
  std::vector<u32> eager_;  ///< Frozen indices of eager components.
  ActiveSet active_;  ///< Awake components, iterated in frozen order.
  TimingWheel wheel_;
  std::size_t awake_lazy_ = 0;   ///< Awake components that are not eager.
  std::size_t wheel_stale_ = 0;  ///< Known-stale entries still in the wheel.
  Cycle next_wake_ = 0;

  u64 ticks_executed_ = 0;
  u64 ticks_skipped_ = 0;
  Cycle ff_cycles_ = 0;

  // ---- Profiling state (see SchedulerProfile) ----
  std::vector<std::string> frozen_names_;  ///< Name by frozen index.
  std::vector<int> stage_ids_;             ///< Sorted unique stages.
  std::vector<u32> stage_bucket_;          ///< Frozen index -> stage_ids_ slot.
  std::vector<u64> stage_exec_;            ///< Per-bucket executed ticks.
  std::vector<u64> stage_skip_;            ///< Per-bucket skipped ticks.
  /// Totals flushed across re-freezes (stage id -> {executed, skipped}).
  std::map<int, std::pair<u64, u64>> stage_totals_;
  u64 wheel_depth_max_ = 0;
  u64 wheel_purges_ = 0;
  u64 ff_events_ = 0;
  std::array<u64, 65> ff_gap_log2_{};
  SchedulerObserver* observer_ = nullptr;
};

inline Cycle Clockable::ticks_owed() const noexcept {
  return wake_sched_ != nullptr ? wake_sched_->owed(wake_index_) : 0;
}

}  // namespace drmp::sim
