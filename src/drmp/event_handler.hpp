// The Event Handler (thesis §3.6.6): "a simple block that interprets Rx
// events. If a packet is to be received, it formats a service request. A
// service request to the IRC can thus originate from either the CPU or the
// Event-handler."
//
// Per mode it watches the Rx translational buffer; on a completed frame it
// submits the autonomous receive chain (drain + redundancy check + header
// parse), evaluates the results, triggers the AckRfu for frames that demand
// an immediate acknowledgement — all "without the software being aware of
// it" (§3.5) — and only then interrupts the CPU.
#pragma once

#include <array>
#include <functional>

#include "hw/ctrl_layout.hpp"
#include "hw/packet_memory.hpp"
#include "irc/irc.hpp"
#include "mac/ctrl_common.hpp"
#include "mac/nav.hpp"
#include "phy/buffers.hpp"
#include "phy/phy_model.hpp"
#include "sim/scheduler.hpp"

namespace drmp {

class EventHandler : public sim::Clockable {
 public:
  struct Env {
    irc::Irc* irc = nullptr;
    hw::PacketMemory* mem = nullptr;
    std::array<phy::RxBuffer*, kNumModes> rx_bufs{};
    std::array<ctrl::ModeIdentity, kNumModes> idents{};
    std::array<bool, kNumModes> enabled{};
    /// Per-mode NAV timers (virtual carrier sense); armed here from the
    /// duration fields of overheard frames when ident.nav_enabled.
    std::array<mac::NavTimer*, kNumModes> nav{};
    const sim::TimeBase* tb = nullptr;
  };

  explicit EventHandler(Env env) : env_(std::move(env)) {}

  /// Gives the handler the mode's medium clock (NAV reservations are armed
  /// against it). Wired by DrmpDevice::attach_medium.
  void attach_medium(Mode m, phy::Medium* medium) { media_[index(m)] = medium; }

  /// Raise-interrupt hook (device wires it to the CPU model + IRC mirror).
  std::function<void(Mode, irc::IrqEvent, Word)> raise_irq;

  /// Routed by the device from Irc::on_complete for event-handler requests.
  void on_request_complete(Mode m, u32 tag);

  /// The CPU's protocol control releases the Rx page after consuming it.
  void release(Mode m);

  void tick() override;

  // ---- Quiescence contract (sim/scheduler.hpp) ----
  /// Skippable while every enabled mode is Idle with an empty Rx buffer.
  /// Frame deliveries (RxBuffer wake hook, wired by DrmpDevice), request
  /// completions and Rx-page releases wake it.
  Cycle quiescent_for() const override;

  u32 rx_bad_frames(Mode m) const { return bad_[index(m)]; }
  u32 rx_acks_generated(Mode m) const { return acked_[index(m)]; }
  u32 rx_frames_handled(Mode m) const { return handled_[index(m)]; }
  u32 rx_ctss_generated(Mode m) const { return cts_[index(m)]; }

  /// Delivery-time snoop, invoked from the Rx buffer's deliver hook at frame
  /// end. Real MAC hardware acts the moment a frame's FCS checks out —
  /// waiting for the drain+parse service request would be too late, since
  /// that request queues behind this mode's own in-flight transmit request
  /// (one TH pair per mode, §3.6.1.1), exactly when the timing matters most.
  /// Modelled as dedicated comparators on the Rx translational buffer's PHY
  /// side (no bus traffic, CPU never sees the frames). Three latches:
  ///   * NAV arm from the duration of a clean frame addressed elsewhere
  ///     (ident.nav_enabled);
  ///   * NAV reset on CF-End / CF-End+CF-Ack (802.11 NAV truncation), with
  ///     the NavTimer waking sleeping deferrers so they re-evaluate
  ///     immediately;
  ///   * the response-anchor latch (CtrlWord::kRespRxEndLo/Hi): the rx-end
  ///     of a clean CTS/ACK addressed to *this* station, read by the
  ///     protocol control when it arms a SIFS-anchored follow-on.
  void rx_snoop(Mode m, const Bytes& frame);

  /// Checkpoint support (sim/checkpoint.hpp): the per-mode statecharts,
  /// request tags and counters. The env is wiring.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(st_);
    ar.io(tag_);
    ar.io(bad_);
    ar.io(acked_);
    ar.io(handled_);
    ar.io(cts_);
  }

 private:
  enum class St : u8 { Idle, WaitDrain, WaitAckGen, WaitCtsGen, WaitRelease };

  void submit_drain(Mode m);
  void evaluate_frame(Mode m);
  /// Reads the duration field of the WiFi frame still held in the Rx page
  /// (control or data layout); 0 when absent/unparsable.
  u16 rx_frame_duration_us(Mode m) const;
  Word status(Mode m, hw::CtrlWord w) const {
    return env_.mem->cpu_read(hw::ctrl_status_addr(m, w));
  }

  Env env_;
  std::array<phy::Medium*, kNumModes> media_{};
  std::array<St, kNumModes> st_{St::Idle, St::Idle, St::Idle};
  std::array<u32, kNumModes> tag_{};
  std::array<u32, kNumModes> bad_{};
  std::array<u32, kNumModes> acked_{};
  std::array<u32, kNumModes> handled_{};
  std::array<u32, kNumModes> cts_{};
};

}  // namespace drmp
