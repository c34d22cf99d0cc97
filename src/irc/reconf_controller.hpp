// The Reconfiguration Controller (thesis §3.6.1.2, Fig. 3.7): "There is just
// one instance of this controller in the IRC because only one RFU can be
// configured at a time." It triggers an RFU to switch configuration (the
// CS/MA mechanism is transparent to it), waits for RDONE, then updates the
// rfu_table. It keeps its own state-occupancy histogram (occupancy()); the
// non-Idle share is its Table 5.1 busy time.
#pragma once

#include <array>
#include <optional>

#include "irc/tables.hpp"
#include "rfu/rfu.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp::irc {

class ReconfController : public sim::Clockable {
 public:
  /// Statechart states (Fig. 3.7).
  enum class State : u8 { Idle = 0, Wait4Oct, TriggerRcnfgWait, Wait4Rfut, UpdateRfut };

  struct Env {
    OpCodeTable* oct = nullptr;
    RfuTable* rfut = nullptr;
    TableMutex* oct_mutex = nullptr;
    TableMutex* rfut_mutex = nullptr;
    std::array<rfu::Rfu*, hw::kMaxRfus>* rfus = nullptr;
  };

  explicit ReconfController(Env env) : env_(env) {}

  /// TH_R submits a reconfiguration request; one outstanding per mode.
  void submit(Mode mode, u8 rfu_id, u8 target_state);

  /// TH_R polls for (and consumes) the RC_DONE event of its request.
  bool take_done(Mode mode);

  /// Non-consuming RC_DONE peek — feeds the requesting TH_R's quiescence
  /// bound without disturbing the take_done handshake.
  bool done_pending(Mode mode) const noexcept { return done_[index(mode)]; }

  State state() const noexcept { return state_; }
  u64 reconfigs_performed() const noexcept { return count_; }
  /// Cycles spent in each statechart state, sampled at the start of every
  /// tick (before its transition). Busy = total() minus Idle.
  const sim::StateOccupancy& occupancy() const noexcept { return occ_; }
  void tick() override;

  /// True when a tick is pure statistics sampling (Irc-level quiescence).
  bool quiescent() const noexcept {
    if (state_ != State::Idle) return false;
    for (const auto& p : pending_) {
      if (p.has_value()) return false;
    }
    return true;
  }

  /// Per-state quiescence bound feeding Irc::quiescent_for(): the only
  /// long-lived wait, TriggerRcnfgWait, is released by the RFU's RDONE
  /// transition, which fires the completion waker registered by
  /// Irc::register_rfu — so the IRC can sleep through the whole
  /// reconfiguration stream instead of polling RFU_RDONE every cycle.
  Cycle quiescent_for_bound() const noexcept {
    switch (state_) {
      case State::Idle: {
        for (const auto& p : pending_) {
          if (p.has_value()) return 0;
        }
        return sim::Clockable::kIdleForever;
      }
      case State::TriggerRcnfgWait: {
        const Request& r = *pending_[index(serving_)];
        return (*env_.rfus)[r.rfu_id]->rdone() ? 0 : sim::Clockable::kIdleForever;
      }
      default:
        return 0;
    }
  }
  /// Bulk-accounts n skipped constant-Idle ticks.
  void skip_idle(Cycle n) override;

  /// Checkpoint support (sim/checkpoint.hpp).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(state_);
    ar.io(pending_);
    ar.io(done_);
    ar.io(serving_);
    ar.io(count_);
    ar.io(occ_);
  }

 private:
  struct Request {
    u8 rfu_id;
    u8 target_state;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(rfu_id);
      ar.io(target_state);
    }
  };

  Env env_;
  State state_ = State::Idle;
  std::array<std::optional<Request>, kNumModes> pending_{};
  std::array<bool, kNumModes> done_{};
  Mode serving_ = Mode::A;
  u64 count_ = 0;
  sim::StateOccupancy occ_;
};

}  // namespace drmp::irc
