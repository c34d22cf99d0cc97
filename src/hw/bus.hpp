// The single shared packet bus and its arbiter (thesis §3.6.3-3.6.5,
// Figs. 3.10-3.12):
//
//   * Single-bus interconnect connecting the IRC, the RFU pool and the packet
//     memory; "the same packet-bus can be used for: the IRC writing data to
//     RFU, the IRC writing data to the packet memory, an RFU writing data to
//     the packet memory or an RFU writing data to another RFU."
//   * Fixed-priority arbitration between the three mode task-handlers
//     ("mode 1 has the highest priority and mode 3 the lowest", §3.6.4);
//     non-preemptive — a granted transaction holds the bus until released.
//   * Grant Delay Logic (Fig. 3.12): when the IRC requests the bus on behalf
//     of an RFU, the grant is delayed until the IRC has triggered that RFU.
//   * Grant Override Logic (Fig. 3.11, §3.6.5): the current master RFU writes
//     the reserved override address with a slave RFU id to hand the bus over,
//     and the slave writes it again to hand it back. "Only the RFU that
//     already has access to the bus can override the grant."
//
// The bus keeps the one account of its own activity: busy_cycles() (cycles
// with a transaction) over total_cycles(), Table 5.1's packet-bus row.
#pragma once

#include <array>
#include <cassert>
#include <vector>

#include "common/types.hpp"
#include "hw/bus_trace.hpp"
#include "hw/memory_map.hpp"
#include "hw/packet_memory.hpp"
#include "hw/trigger.hpp"
#include "sim/scheduler.hpp"

namespace drmp::hw {

class PacketBus : public sim::Clockable {
 public:
  enum class MasterKind : u8 { None, Irc, Rfu };

  struct Grant {
    MasterKind kind = MasterKind::None;
    Mode mode = Mode::A;   // Valid when kind == Irc.
    u8 rfu_id = 0xFF;      // Valid when kind == Rfu.
    bool operator==(const Grant&) const = default;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(kind);
      ar.io(mode);
      ar.io(rfu_id);
    }
  };

  struct ModeRequest {
    bool active = false;
    bool for_rfu = false;  // IRC requesting on behalf of an RFU.
    u8 rfu_id = 0xFF;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(active);
      ar.io(for_rfu);
      ar.io(rfu_id);
    }
  };

  explicit PacketBus(PacketMemory& mem);

  // ---- Request lines (driven by the mode task handlers) ----
  void request_for_irc(Mode m);
  void request_for_rfu(Mode m, u8 rfu_id);
  void release(Mode m);
  const ModeRequest& mode_request(Mode m) const { return requests_[index(m)]; }

  // ---- Grant queries ----
  const Grant& grant() const noexcept { return grant_; }
  bool granted_irc(Mode m) const {
    return grant_.kind == MasterKind::Irc && grant_.mode == m;
  }
  bool granted_rfu(u8 rfu_id) const {
    return grant_.kind == MasterKind::Rfu && grant_.rfu_id == rfu_id;
  }

  // ---- Transactions (current master only; at most one per cycle) ----
  Word read(u32 addr);
  void write(u32 addr, Word data);
  bool can_access() const noexcept { return !accessed_this_cycle_; }

  // ---- Trigger logic access (RFU side) ----
  RfuTriggerLogic& triggers() noexcept { return triggers_; }

  // ---- Arbitration (once per architecture cycle) ----
  void tick() override;

  // ---- Quiescence contract (sim/scheduler.hpp) ----
  /// Skippable while no request line is asserted and no grant is held (an
  /// idle tick is pure cycle accounting plus a no-op arbitrate). Request
  /// lines wake the bus before they reach an attached transaction recorder,
  /// and the wake settles the skipped cycles first, so the recorder reads
  /// an exact total_cycles(); reads, writes and releases happen only while
  /// a grant keeps the bus awake.
  Cycle quiescent_for() const override;
  void skip_idle(Cycle n) override;

  // ---- Instrumentation ----
  Cycle busy_cycles() const noexcept { return busy_cycles_; }
  Cycle total_cycles() const noexcept { return total_cycles_; }
  Cycle mode_hold_cycles(Mode m) const { return mode_hold_cycles_[index(m)]; }
  /// Cycles a mode spent requesting without owning the bus (contention).
  Cycle mode_wait_cycles(Mode m) const { return mode_wait_cycles_[index(m)]; }

  /// Attaches a transaction recorder for interconnect exploration
  /// (§3.6.3/§7.1 alternatives); pass nullptr to detach.
  void attach_recorder(BusTraceRecorder* r) noexcept { recorder_ = r; }

  /// Checkpoint support (sim/checkpoint.hpp). The arbiter state machine,
  /// the trigger latches and every cycle counter travel; the memory and the
  /// recorder are wiring owned elsewhere.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(triggers_);
    ar.io(requests_);
    ar.io(grant_);
    ar.io(override_stack_);
    ar.io(accessed_this_cycle_);
    ar.io(busy_cycles_);
    ar.io(total_cycles_);
    ar.io(mode_hold_cycles_);
    ar.io(mode_wait_cycles_);
  }

 private:
  Mode grant_origin_mode() const;
  void arbitrate();

  PacketMemory& mem_;
  BusTraceRecorder* recorder_ = nullptr;
  RfuTriggerLogic triggers_;

  std::array<ModeRequest, kNumModes> requests_{};
  Grant grant_{};
  std::vector<Grant> override_stack_;

  bool accessed_this_cycle_ = false;
  Cycle busy_cycles_ = 0;
  Cycle total_cycles_ = 0;
  std::array<Cycle, kNumModes> mode_hold_cycles_{};
  std::array<Cycle, kNumModes> mode_wait_cycles_{};
};

}  // namespace drmp::hw
