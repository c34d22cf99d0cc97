// System testbench: one DRMP device, three protocol media, and a scripted
// remote peer per medium — the counterpart of the thesis's Simulink
// simulation setup (Fig. A.1), used by the unit/integration tests and by
// every bench binary that regenerates a Chapter-5 figure or table.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "drmp/device.hpp"
#include "phy/channel.hpp"

namespace drmp {

class Testbench {
 public:
  explicit Testbench(DrmpConfig cfg = DrmpConfig::standard_three_mode());

  sim::Scheduler& scheduler() { return *sched_; }
  DrmpDevice& device() { return *device_; }
  phy::Medium& medium(Mode m) { return *media_[index(m)]; }
  phy::ScriptedPeer& peer(Mode m) { return *peers_[index(m)]; }
  const DrmpConfig& config() const { return cfg_; }

  /// Runs for n architecture cycles.
  void run_cycles(Cycle n) { sched_->run_cycles(n); }
  /// sim::Scheduler::run_until: `done` must read state that changes inside
  /// a tick, like the outcome trackers below.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles) {
    return sched_->run_until(done, max_cycles);
  }

  // ---- Scenario drivers ----
  struct TxOutcome {
    bool completed = false;
    bool success = false;
    u32 retries = 0;
    Cycle start_cycle = 0;
    Cycle end_cycle = 0;
    double latency_us = 0.0;
  };

  /// Sends one MSDU on a mode and runs until the control software reports
  /// completion (ACKed / ARQ-tagged) or the cycle budget runs out.
  TxOutcome send_and_wait(Mode m, Bytes msdu, Cycle max_cycles = 40'000'000);

  /// Queues an MSDU without waiting (for concurrent multi-mode runs).
  void send_async(Mode m, Bytes msdu);

  /// Runs until `n` transmissions completed on mode m.
  bool wait_tx_count(Mode m, u32 n, Cycle max_cycles);

  /// Injects a peer-originated frame and waits for upward MSDU delivery.
  std::optional<Bytes> inject_and_wait(Mode m, const Bytes& msdu_plain, u32 seq,
                                       Cycle max_cycles = 40'000'000);

  /// Builds the on-air frame(s) a remote peer would send to deliver
  /// `msdu_plain` (encrypted with the device's mode key, fragmented at the
  /// mode's threshold).
  std::vector<Bytes> make_peer_frames(Mode m, const Bytes& msdu_plain, u32 seq) const;

  /// Builds a WiMAX ARQ-feedback MPDU acknowledging up to `cumulative_bsn`.
  Bytes make_arq_feedback(u32 cumulative_bsn) const;

  // ---- Outcome trackers ----
  u32 tx_completions(Mode m) const { return tx_done_[index(m)]; }
  u32 tx_successes(Mode m) const { return tx_ok_[index(m)]; }
  const std::vector<Bytes>& delivered(Mode m) const { return delivered_[index(m)]; }
  const std::vector<double>& tx_latencies_us(Mode m) const {
    return tx_latencies_us_[index(m)];
  }

 private:
  DrmpConfig cfg_;
  std::unique_ptr<sim::Scheduler> sched_;
  std::array<std::unique_ptr<phy::Medium>, kNumModes> media_{};
  std::array<std::unique_ptr<phy::ScriptedPeer>, kNumModes> peers_{};
  std::unique_ptr<DrmpDevice> device_;

  std::array<u32, kNumModes> tx_done_{};
  std::array<u32, kNumModes> tx_ok_{};
  std::array<u32, kNumModes> last_retries_{};
  std::array<std::vector<Bytes>, kNumModes> delivered_;
  std::array<Cycle, kNumModes> tx_start_cycle_{};
  std::array<std::vector<double>, kNumModes> tx_latencies_us_;
};

}  // namespace drmp
