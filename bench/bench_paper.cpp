// bench_paper — the source paper's figures and tables (thesis Chs. 5-6),
// one section each, printing the rows / series the paper reports.
//
//   $ bench_paper                  # every section, in paper order
//   $ bench_paper fig5_08_tx_200mhz
//   $ bench_paper --list           # the section names
//
// A section returns false when one of the claims it checks does not hold;
// bench_paper then exits 1. An unknown section name exits 2. The stdout and
// exit code of each section are pinned by the golden_bench_* ctests
// (tests/golden/bench/bench_<section>.txt).
#include "bench_common.hpp"

#include <cstring>
#include <map>

#include "baseline/conventional.hpp"
#include "est/gates.hpp"
#include "est/power.hpp"
#include "irc/task_handler.hpp"

namespace drmp::bench {
namespace {

using est::Table;

/// Prints "0=IDLE 1=... " for a task-handler statechart up to `last`.
template <class State>
void print_state_legend(State last) {
  std::cout << "state legend: ";
  for (int s = 0; s <= static_cast<int>(last); ++s) {
    std::cout << s << "=" << irc::to_string(static_cast<State>(s)) << " ";
  }
  std::cout << "\n\n";
}

/// Injects one peer frame per mode at `t0` and runs until all three MSDUs
/// are delivered; false if the run hits its cycle budget first.
bool receive_three_modes(Testbench& tb, const Bytes& ma, const Bytes& mb, const Bytes& mc,
                         Cycle t0) {
  tb.peer(Mode::A).inject_frame(tb.make_peer_frames(Mode::A, ma, 1)[0], t0);
  tb.peer(Mode::B).inject_frame(tb.make_peer_frames(Mode::B, mb, 1)[0], t0);
  tb.peer(Mode::C).inject_frame(tb.make_peer_frames(Mode::C, mc, 1)[0], t0);
  return tb.run_until(
      [&] {
        return !tb.delivered(Mode::A).empty() && !tb.delivered(Mode::B).empty() &&
               !tb.delivered(Mode::C).empty();
      },
      400'000'000);
}

/// `part` as a percentage of `whole`.
double percent(Cycle part, Cycle whole) {
  return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

/// Sum of every RFU's busy cycles.
Cycle rfu_busy_cycles(Testbench& tb) {
  Cycle busy = 0;
  for (const rfu::Rfu* r : tb.device().rfus()) busy += r->busy_cycles();
  return busy;
}

/// Per-block activity factors measured under sustained 3-mode traffic (3 x
/// 1000 B per mode): each RFU's, the CPU's and the packet bus's busy
/// fraction, keyed by estimator block name — the paper's methodology,
/// simulation slack -> power.
std::map<std::string, double> measured_activity() {
  Testbench tb;
  run_three_mode_tx(tb, 3, 1000);
  const double total = static_cast<double>(tb.scheduler().now());
  std::map<std::string, double> activity;
  const auto& rfu_blocks = est::drmp_rfu_blocks();
  for (const rfu::Rfu* r : tb.device().rfus()) {
    auto it = rfu_blocks.find(r->name());
    if (it != rfu_blocks.end()) {
      activity[it->second.name] = static_cast<double>(r->busy_cycles()) / total;
    }
  }
  activity["cpu_core"] = tb.device().cpu().busy_fraction();
  activity["packet_bus+arbiter"] =
      static_cast<double>(tb.device().bus().busy_cycles()) / total;
  return activity;
}

// ---- Chapter 5: functional verification and timing -------------------------

// Fig. 5.1 — Packet Transmission, 1 protocol mode.
// One WiFi MSDU (1500 B, fragmented at 1024 B) transmitted while modes B/C
// are idle; prints the entity-activity waveform the Simulink scope showed,
// plus the per-phase event timeline.
bool fig5_01_tx_1mode() {
  Testbench tb;
  Probe::attach(tb);

  std::cout << "=== Fig 5.1: Packet Transmission - 1 Mode (WiFi, 1500 B MSDU, "
               "frag thr 1024 B, 200 MHz) ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  const auto out = tb.send_and_wait(Mode::A, make_payload(1500));
  const Cycle t1 = tb.scheduler().now();
  tb.run_cycles(2000);

  std::cout << "outcome: completed=" << out.completed << " success=" << out.success
            << "  MSDU->ACKed latency = " << Table::num(out.latency_us, 1)
            << " us (2 fragments, DCF access + air time dominated)\n\n";
  print_waveform(tb, t0, t1 + 2000);
  std::cout << "\n";
  print_busy_table(tb, t0, t1, "Entity busy time during the transmission");

  std::cout << "\npeer: data frames received = "
            << tb.peer(Mode::A).received_data_frames().size()
            << ", ACKs sent = " << tb.peer(Mode::A).acks_sent() << "\n";
  return true;
}

// Fig. 5.2 — Packet Reception, 1 protocol mode.
// A peer-originated WiFi MPDU arrives; the Event Handler drains/checks/
// parses it autonomously, the AckRfu answers within SIFS, and the CPU-side
// control extracts, reassembles and decrypts the MSDU.
bool fig5_02_rx_1mode() {
  Testbench tb;
  Probe::attach(tb);

  std::cout << "=== Fig 5.2: Packet Reception - 1 Mode (WiFi, 1200 B MSDU) ===\n\n";
  const Bytes msdu = make_payload(1200);
  const Cycle t0 = tb.scheduler().now();
  const auto delivered = tb.inject_and_wait(Mode::A, msdu, /*seq=*/3);
  const Cycle t1 = tb.scheduler().now();
  tb.run_cycles(4000);  // Let the ACK air.

  std::cout << "delivered: " << (delivered.has_value() ? "yes" : "NO") << " ("
            << (delivered ? delivered->size() : 0) << " bytes, intact="
            << (delivered && *delivered == msdu) << ")\n";
  const Cycle rx_end = tb.device().rx_rfu().last_rx_end();
  const Cycle ack_start = tb.device().phy_tx(Mode::A)->last_tx_start();
  std::cout << "ACK turnaround: rx_end -> ack_start = "
            << Table::num(tb.device().timebase().cycles_to_us(ack_start - rx_end), 2)
            << " us (SIFS = 10 us; constraint "
            << (ack_start >= rx_end + 2000 && ack_start <= rx_end + 2010 ? "MET exactly"
                                                                          : "violated!")
            << ")\n\n";
  print_waveform(tb, t0, t1 + 4000);
  std::cout << "\n";
  print_busy_table(tb, t0, t1, "Entity busy time during the reception");
  return true;
}

// Fig. 5.3 — Packet Transmission, 3 concurrent protocol modes.
// WiFi, WiMAX and UWB each transmit an MSDU concurrently on the single
// co-processor; the IRC interleaves them, reconfiguring the shared RFUs
// packet-by-packet.
bool fig5_03_tx_3modes() {
  Testbench tb;
  Probe::attach(tb);

  std::cout << "=== Fig 5.3: Packet Transmission - 3 Concurrent Modes "
               "(WiFi + WiMAX + UWB, 1000 B each) ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 1000);
  const Cycle t1 = tb.scheduler().now();

  for (std::size_t i = 0; i < kNumModes; ++i) {
    const Mode m = mode_from_index(i);
    std::cout << "mode " << to_string(m) << " ("
              << mac::to_string(tb.config().modes[i].ident.proto)
              << "): completions=" << tb.tx_completions(m)
              << " successes=" << tb.tx_successes(m);
    if (!tb.tx_latencies_us(m).empty()) {
      std::cout << " latency=" << Table::num(tb.tx_latencies_us(m).back(), 1) << " us";
    }
    std::cout << "\n";
  }
  std::cout << "crypto RFU reconfigurations (packet-by-packet switching): "
            << tb.device().crypto_rfu().reconfig_count() << "\n\n";
  print_waveform(tb, t0, t1);
  std::cout << "\n";
  print_busy_table(tb, t0, t1, "Entity busy time, 3-mode transmission");
  return true;
}

// Fig. 5.4 — Packet Reception, 3 concurrent protocol modes.
// Frames arrive simultaneously on all three media; the Event Handler and the
// IRC serialize the drains over the shared bus; every MSDU is delivered and
// the WiFi/UWB frames are ACKed on time.
bool fig5_04_rx_3modes() {
  Testbench tb;
  Probe::attach(tb);

  std::cout << "=== Fig 5.4: Packet Reception - 3 Concurrent Modes ===\n\n";
  const Bytes ma = make_payload(800, 1), mb = make_payload(800, 2),
              mc = make_payload(800, 3);
  const Cycle t0 = tb.scheduler().now() + 10;
  const bool all = receive_three_modes(tb, ma, mb, mc, t0);
  const Cycle t1 = tb.scheduler().now();
  tb.run_cycles(4000);

  std::cout << "all three MSDUs delivered: " << (all ? "yes" : "NO") << "\n";
  std::cout << "  WiFi  intact=" << (tb.delivered(Mode::A)[0] == ma) << "\n";
  std::cout << "  WiMAX intact=" << (tb.delivered(Mode::B)[0] == mb) << "\n";
  std::cout << "  UWB   intact=" << (tb.delivered(Mode::C)[0] == mc) << "\n";
  std::cout << "autonomous ACKs generated (no CPU involvement): "
            << tb.device().ack_rfu().acks_generated() << " (WiFi + UWB)\n\n";
  print_waveform(tb, t0, t1 + 4000);
  std::cout << "\n";
  print_busy_table(tb, t0, t1, "Entity busy time, 3-mode reception");
  return true;
}

// Fig. 5.5 — TH_M timing diagram: the per-mode MAC task-handler state traces
// during a 3-mode concurrent transmission, showing delegation, bus waits and
// sleep/wake contention on shared RFUs.
bool fig5_05_thm_timing() {
  Testbench tb;
  Probe::attach(tb);

  std::cout << "=== Fig 5.5: Task-Handler-for-MAC (TH_M) timing diagram, "
               "3-mode transmission ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 800);
  const Cycle t1 = tb.scheduler().now();

  print_state_legend(irc::ThMState::UseRfut2);
  std::cout << tb.device().trace().ascii_waveform({"thm.A", "thm.B", "thm.C"}, t0, t1,
                                                  110);

  // Per-mode TH_M activity summary.
  Table t({"TH_M", "Active cycles", "Active (us)", "Requests completed"});
  for (std::size_t i = 0; i < kNumModes; ++i) {
    const Mode m = mode_from_index(i);
    const auto& ch = tb.device().trace().channel("thm." + std::string(to_string(m)));
    const Cycle act = ch.active_cycles(t0, t1);
    t.add_row({to_string(m), std::to_string(act),
               Table::num(tb.device().timebase().cycles_to_us(act)),
               std::to_string(tb.device().irc().handler(m).requests_completed())});
  }
  std::cout << "\n";
  t.print(std::cout);
  return true;
}

// Fig. 5.6 — TH_R timing diagram: the reconfiguration task-handlers running
// ahead of their TH_Ms, invoking the single Reconfiguration Controller.
bool fig5_06_thr_timing() {
  Testbench tb;
  Probe::attach(tb);

  std::cout << "=== Fig 5.6: Task-Handler-for-Reconfiguration (TH_R) timing "
               "diagram, 3-mode transmission ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 800);
  const Cycle t1 = tb.scheduler().now();

  print_state_legend(irc::ThRState::UseRfut2);
  std::cout << tb.device().trace().ascii_waveform({"thr.A", "thr.B", "thr.C"}, t0, t1,
                                                  110);

  std::cout << "\nRC reconfigurations performed: "
            << tb.device().irc().rc().reconfigs_performed() << "\n";
  Table t({"RFU", "Reconfig count", "Reconfig cycles", "Mechanism"});
  for (const rfu::Rfu* r : tb.device().rfus()) {
    if (r->reconfig_count() == 0) continue;
    t.add_row({r->name(), std::to_string(r->reconfig_count()),
               std::to_string(r->reconfig_cycles()),
               r->mechanism() == rfu::ReconfigMech::ContextSwitch ? "context-switch"
                                                                  : "memory-access"});
  }
  t.print(std::cout);
  return true;
}

// Fig. 5.7 — TH_M timing diagram magnified: a zoom into the first service
// request showing the statechart walk (WAIT4_OCT -> WAIT4_RFUT -> ... ->
// USE_PBUS -> WAIT4_RFUDONE -> USE_RFUT2) cycle by cycle.
bool fig5_07_thm_magnified() {
  Testbench tb;
  Probe::attach(tb);

  std::cout << "=== Fig 5.7: TH_M timing diagram (magnified, mode A, first "
               "request) ===\n\n";
  // Kick off one WiFi transmission and capture the first ~1200 cycles of
  // TH_M.A activity.
  tb.send_async(Mode::A, make_payload(600));
  // Run until TH_M.A leaves IDLE.
  tb.run_until(
      [&] {
        return tb.device().irc().handler(Mode::A).thm_state() != irc::ThMState::Idle;
      },
      8'000'000);
  const Cycle t0 = tb.scheduler().now() > 4 ? tb.scheduler().now() - 4 : 0;
  tb.run_cycles(1200);
  const Cycle t1 = tb.scheduler().now();
  tb.wait_tx_count(Mode::A, 1, 400'000'000);

  print_state_legend(irc::ThMState::UseRfut2);
  std::cout << tb.device().trace().ascii_waveform(
      {"thm.A", "thr.A", "bus", "rfu.seq", "rfu.crypto"}, t0, t1, 110);

  // State-by-state transition log for the window.
  std::cout << "\ntransition log (cycle: state):\n";
  const auto& ch = tb.device().trace().channel("thm.A");
  int printed = 0;
  for (const auto& e : ch.events()) {
    if (e.cycle < t0 || e.cycle >= t1) continue;
    std::cout << "  " << e.cycle << ": "
              << irc::to_string(static_cast<irc::ThMState>(e.value)) << "\n";
    if (++printed > 40) {
      std::cout << "  ...\n";
      break;
    }
  }
  return true;
}

/// Figs. 5.8/5.9 — one WiFi MSDU sent, then one received, with the
/// architecture at `arch_mhz` and the CPU at `cpu_mhz`. Checked claim: the
/// ACK turnaround (rx_end -> ack_start) lies in [SIFS, max_turnaround_us).
/// `closing` prints the figure's remaining lines from the finished run.
bool tx_at(double arch_mhz, double cpu_mhz, double max_turnaround_us,
           const std::function<void(Testbench&)>& closing) {
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.arch_freq_hz = arch_mhz * 1e6;
  cfg.cpu_freq_hz = cpu_mhz * 1e6;
  Testbench tb(cfg);

  const auto out = tb.send_and_wait(Mode::A, make_payload(1500), 4'000'000'000ull);
  std::cout << "architecture clock: " << arch_mhz << " MHz, CPU " << cpu_mhz << " MHz\n";
  std::cout << "  tx completed=" << out.completed << " success=" << out.success
            << " end-to-end latency=" << Table::num(out.latency_us, 1) << " us\n";

  // ACK turnaround on the receive side (hard constraint): inject and check.
  const u64 sent_before = tb.device().phy_tx(Mode::A)->frames_sent();
  const auto delivered =
      tb.inject_and_wait(Mode::A, make_payload(400), 9, 4'000'000'000ull);
  tb.run_until([&] { return tb.device().phy_tx(Mode::A)->frames_sent() > sent_before; },
               40'000'000);
  const Cycle rx_end = tb.device().rx_rfu().last_rx_end();
  const Cycle ack_start = tb.device().phy_tx(Mode::A)->last_tx_start();
  const double turnaround_us = tb.device().timebase().cycles_to_us(ack_start - rx_end);
  const bool met = turnaround_us >= 10.0 && turnaround_us < max_turnaround_us;
  std::cout << "  rx delivered=" << delivered.has_value()
            << "  ACK turnaround=" << Table::num(turnaround_us, 2)
            << " us (SIFS budget 10 us) -> " << (met ? "constraint MET" : "CHECK")
            << "\n";
  closing(tb);
  return met;
}

// Fig. 5.8 — Packet transmission at 200 MHz: the prototype operating point.
// Reports the per-phase latencies of a WiFi transmission and checks every
// protocol timing constraint, with the slack the architecture enjoys.
bool fig5_08_tx_200mhz() {
  std::cout << "=== Fig 5.8: Packet Transmission at 200 MHz ===\n\n";
  return tx_at(200.0, 40.0, 10.5, [](Testbench& tb) {
    // RHCP processing slack: cycles the co-processor actually worked vs the
    // packet air time.
    const double busy_us = tb.device().timebase().cycles_to_us(rfu_busy_cycles(tb));
    std::cout << "  total RFU busy time=" << Table::num(busy_us, 1) << " us over "
              << Table::num(tb.scheduler().now_us(), 1) << " us simulated -> slack="
              << Table::num(100.0 * (1.0 - busy_us / tb.scheduler().now_us()), 2)
              << "%\n";
  });
}

// Fig. 5.9 — Packet transmission at 50 MHz: the paper's low-clock run,
// showing the architecture still meets the protocol constraints with the
// clock (and hence power) reduced fourfold — the §5.5.2 frequency argument.
bool fig5_09_tx_50mhz() {
  std::cout << "=== Fig 5.9: Packet Transmission at 50 MHz ===\n\n";
  return tx_at(50.0, 20.0, 12.0, [](Testbench&) {
    std::cout << "\nReading: at a quarter of the prototype clock the DRMP still "
                 "meets WiFi's timing — the slack at 200 MHz (Fig. 5.8) is real "
                 "frequency headroom (thesis §5.5.2). See bench_freq_sweep for "
                 "the full curve and the breaking point.\n";
  });
}

// Fig. 5.10 — 1-mode vs 3-mode transmission: per-packet hardware processing
// time with and without cross-mode contention on the shared co-processor.
// The paper's point: concurrency costs a little (bus + RFU contention,
// packet-by-packet reconfiguration) but the constraints still hold.
struct ModesRun {
  double latency_us;
  double rfu_busy_us;  ///< RHCP processing: total RFU busy time of the run.
  double bus_wait_us;
};

ModesRun one_wifi_packet(bool three_modes) {
  Testbench tb;
  if (three_modes) {
    tb.send_async(Mode::B, make_payload(1000, 9));
    tb.send_async(Mode::C, make_payload(1000, 8));
  }
  const auto out = tb.send_and_wait(Mode::A, make_payload(1000), 4'000'000'000ull);
  if (three_modes) {
    tb.wait_tx_count(Mode::B, 1, 4'000'000'000ull);
    tb.wait_tx_count(Mode::C, 1, 4'000'000'000ull);
  }
  const auto& tbase = tb.device().timebase();
  return ModesRun{out.latency_us, tbase.cycles_to_us(rfu_busy_cycles(tb)),
                  tbase.cycles_to_us(tb.device().bus().mode_wait_cycles(Mode::A))};
}

bool fig5_10_1v3_modes() {
  std::cout << "=== Fig 5.10: 1-mode vs 3-mode transmission ===\n\n";
  const auto one = one_wifi_packet(false);
  const auto three = one_wifi_packet(true);

  Table t({"Scenario", "WiFi pkt latency (us)", "total RFU busy (us)",
           "mode-A bus wait (us)"});
  t.add_row({"1 mode (WiFi only)", Table::num(one.latency_us, 1),
             Table::num(one.rfu_busy_us, 1), Table::num(one.bus_wait_us, 2)});
  t.add_row({"3 modes concurrent", Table::num(three.latency_us, 1),
             Table::num(three.rfu_busy_us, 1), Table::num(three.bus_wait_us, 2)});
  t.print(std::cout);

  std::cout << "\nReading: the 3-mode run adds RFU work (three protocols' "
               "packets) and some bus-wait to mode A, but the WiFi packet "
               "latency stays in the same band — air time and channel access "
               "dominate, not co-processor contention (thesis §5.5.3).\n";
  return true;
}

// Fig. 5.11 — Proportional time spent by a mode: how the shared resources
// (packet bus, CPU) divide among the three concurrent protocol modes.
bool fig5_11_mode_share() {
  Testbench tb;
  std::cout << "=== Fig 5.11: Proportional time spent by each mode "
               "(3 modes x 2 packets) ===\n\n";
  run_three_mode_tx(tb, 2, 1000);

  const auto& tbase = tb.device().timebase();
  const Cycle total = tb.scheduler().now();
  Table t({"Mode", "Protocol", "Bus hold (us)", "Bus hold (%)", "Bus wait (us)",
           "CPU time (us)"});
  Cycle hold_sum = 0;
  for (std::size_t i = 0; i < kNumModes; ++i) {
    hold_sum += tb.device().bus().mode_hold_cycles(mode_from_index(i));
  }
  for (std::size_t i = 0; i < kNumModes; ++i) {
    const Mode m = mode_from_index(i);
    const Cycle hold = tb.device().bus().mode_hold_cycles(m);
    t.add_row({to_string(m), mac::to_string(tb.config().modes[i].ident.proto),
               Table::num(tbase.cycles_to_us(hold), 1),
               Table::num(percent(hold, total), 3),
               Table::num(tbase.cycles_to_us(tb.device().bus().mode_wait_cycles(m)), 2),
               Table::num(tbase.cycles_to_us(tb.device().cpu().mode_cpu_cycles(m)), 1)});
  }
  t.print(std::cout);
  std::cout << "\ntotal simulated time: " << Table::num(tbase.cycles_to_us(total), 1)
            << " us; bus held " << Table::num(tbase.cycles_to_us(hold_sum), 1) << " us ("
            << Table::num(percent(hold_sum, total), 2)
            << "% — the single bus is nowhere near saturation at these line "
               "rates, §3.6.3)\n";
  std::cout << "CPU busy fraction: "
            << Table::num(100.0 * tb.device().cpu().busy_fraction(), 3) << "% across "
            << tb.device().cpu().isr_invocations() << " short ISR invocations (§4.1.1)\n";
  return true;
}

/// One Fig. 5.12 table: the percentage of cycles each mode's handler spent
/// in each state up to `last`; `occupancy` picks the TH_M or TH_R account.
template <class State>
void print_occupancy_table(
    irc::Irc& irc, const std::string& title, State last,
    const sim::StateOccupancy& (irc::TaskHandler::*occupancy)() const) {
  Table t({title, "mode A %", "mode B %", "mode C %"});
  for (int s = 0; s <= static_cast<int>(last); ++s) {
    std::vector<std::string> row = {irc::to_string(static_cast<State>(s))};
    for (const Mode m : {Mode::A, Mode::B, Mode::C}) {
      const sim::StateOccupancy& o = (irc.handler(m).*occupancy)();
      row.push_back(Table::num(percent(o.cycles_in(s), o.total()), 3));
    }
    t.add_row(row);
  }
  t.print(std::cout);
}

// Fig. 5.12 — State occupation in the Task-handler: the fraction of time the
// TH_M/TH_R controllers spend in each statechart state over a sustained
// 3-mode run. The paper uses this to show the handlers idle most of the time
// and, when active, are dominated by waiting states (time slack).
bool fig5_12_state_occupation() {
  Testbench tb;
  std::cout << "=== Fig 5.12: State occupation in the Task-handlers "
               "(3 modes x 3 packets) ===\n\n";
  run_three_mode_tx(tb, 3, 1000);

  irc::Irc& irc = tb.device().irc();
  print_occupancy_table(irc, "TH_M state", irc::ThMState::UseRfut2,
                        &irc::TaskHandler::thm_occupancy);
  std::cout << "\n";
  print_occupancy_table(irc, "TH_R state", irc::ThRState::UseRfut2,
                        &irc::TaskHandler::thr_occupancy);
  std::cout << "\nReading: both handlers sit in IDLE for the overwhelming "
               "majority of cycles; active time is dominated by WAIT4_RFUDONE "
               "(TH_M, waiting on coarse-grained RFU latency) — the idle slack "
               "the paper's power argument builds on (§5.5.1).\n";
  return true;
}

// Table 5.1 — Busy time of the various entities in the DRMP during
// transmission (3-mode concurrent run).
bool tab5_1_busy_tx() {
  Testbench tb;
  Probe::attach(tb);
  std::cout << "=== Table 5.1: Busy Time of Various Entities in DRMP During "
               "Transmission ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 1000);
  const Cycle t1 = tb.scheduler().now();
  print_busy_table(tb, t0, t1, "3-mode transmission (1000 B per mode)");

  // IRC controllers (busy = non-IDLE cycles of each controller's own
  // state-occupancy histogram), then the CPU's own counter.
  const auto& tbase = tb.device().timebase();
  Table t({"IRC controller", "Busy (us)", "Busy (%)"});
  const auto row = [&](const std::string& name, Cycle busy, double fraction) {
    t.add_row({name, Table::num(tbase.cycles_to_us(busy), 1),
               Table::num(100.0 * fraction, 3)});
  };
  const auto occupancy_row = [&](const std::string& name, const sim::StateOccupancy& o) {
    const Cycle busy = o.total() - o.cycles_in(0);  // State 0 is Idle.
    row(name, busy, static_cast<double>(busy) / static_cast<double>(o.total()));
  };
  irc::Irc& irc = tb.device().irc();
  for (const Mode m : {Mode::A, Mode::B, Mode::C}) {
    occupancy_row(std::string("irc.thm.") + to_string(m), irc.handler(m).thm_occupancy());
  }
  for (const Mode m : {Mode::A, Mode::B, Mode::C}) {
    occupancy_row(std::string("irc.thr.") + to_string(m), irc.handler(m).thr_occupancy());
  }
  occupancy_row("irc.rc", irc.rc().occupancy());
  row("cpu", tb.device().cpu().busy_cycles(), tb.device().cpu().busy_fraction());
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nReading: every entity is busy for a small fraction of the "
               "run — the \"proportionally large time that these resources "
               "are idle\" that promises modest power consumption (abstract).\n";
  return true;
}

// Table 5.2 — Busy time of the various entities in the DRMP during
// reception (3-mode concurrent run).
bool tab5_2_busy_rx() {
  Testbench tb;
  Probe::attach(tb);
  std::cout << "=== Table 5.2: Busy Time of Various Entities in DRMP During "
               "Reception ===\n\n";

  const Cycle t0 = tb.scheduler().now() + 10;
  receive_three_modes(tb, make_payload(1000, 1), make_payload(1000, 2),
                      make_payload(1000, 3), t0);
  const Cycle t1 = tb.scheduler().now();
  print_busy_table(tb, t0, t1, "3-mode reception (1000 B per mode)");

  const auto& eh = tb.device().event_handler();
  std::cout << "\nautonomous path counters: event-handler frames="
            << eh.rx_frames_handled(Mode::A) + eh.rx_frames_handled(Mode::B) +
                   eh.rx_frames_handled(Mode::C)
            << ", ACKs generated without CPU=" << tb.device().ack_rfu().acks_generated()
            << ", CPU busy fraction="
            << Table::num(100.0 * tb.device().cpu().busy_fraction(), 3) << "%\n";
  return true;
}

// ---- Chapter 6: power, area and the time slack behind them -----------------

// Fig. 6.1 — Time slack in the RHCP: over a sustained multi-packet 3-mode
// run, how much of the time each hardware resource is idle — the quantity
// the Chapter-6 power-saving techniques (clock gating, PSO, DVFS) convert
// into energy savings. Names every resource below 99% slack.
bool fig6_1_time_slack() {
  Testbench tb;
  std::cout << "=== Fig 6.1: Time Slack in the RHCP (3 modes x 3 packets, "
               "1000 B) ===\n\n";
  run_three_mode_tx(tb, 3, 1000);
  const Cycle total = tb.scheduler().now();
  const auto& tbase = tb.device().timebase();

  Table t({"Resource", "Busy (us)", "Slack (%)"});
  std::string below_99;
  auto add = [&](const std::string& n, Cycle busy) {
    const double slack =
        100.0 * (1.0 - static_cast<double>(busy) / static_cast<double>(total));
    const std::string busy_us = Table::num(tbase.cycles_to_us(busy), 1);
    t.add_row({n, busy_us, Table::num(slack, 2)});
    if (slack < 99.0) {
      below_99 += (below_99.empty() ? "" : ", ") + n + " (" + busy_us + " us busy, " +
                  Table::num(slack, 2) + "% slack)";
    }
  };
  for (const rfu::Rfu* r : tb.device().rfus()) add("RFU " + r->name(), r->busy_cycles());
  add("packet bus", tb.device().bus().busy_cycles());
  add("CPU", tb.device().cpu().busy_cycles());
  t.print(std::cout);

  const double utilization =
      100.0 * static_cast<double>(rfu_busy_cycles(tb)) /
      (static_cast<double>(total) * static_cast<double>(tb.device().rfus().size()));
  std::cout << "\naggregate RFU utilization: " << Table::num(utilization, 3)
            << "% -> slack " << Table::num(100.0 - utilization, 2)
            << "%; below 99% slack: " << (below_99.empty() ? "none" : below_99)
            << " — gating/PSO can cut the dynamic and leakage power of the "
               "idle resources nearly proportionally (thesis §6.2; quantified "
               "in bench_power_ablation).\n";
  return true;
}

// Table 6.1 — Synthesis Results, WiFi MAC: block-level gate-count estimate
// of a conventional single-protocol 802.11 MAC SoC (the estimation baseline
// the thesis anchors its comparison on).
bool tab6_1_synth_wifi() {
  std::cout << "=== Table 6.1: Synthesis Results - WiFi MAC (conventional, "
               "130 nm estimates) ===\n\n";
  const est::Design d = est::conventional_wifi_mac();
  const est::Process p;
  Table t({"Block", "Gates (NAND2-eq)", "SRAM (bits)"});
  for (const auto& b : d.blocks()) {
    t.add_row({b.name, Table::gates(b.gates), std::to_string(b.sram_bits)});
  }
  t.add_row(
      {"TOTAL", Table::gates(d.total_gates()), std::to_string(d.total_sram_bits())});
  t.print(std::cout);
  std::cout << "\narea @" << p.name << ": " << Table::num(d.area_mm2(p), 2) << " mm^2 "
            << "(logic + embedded SRAM)\n";
  return true;
}

// Table 6.2 — Gate Count for MAC Implementations: the three conventional
// single-protocol MACs vs the single DRMP that replaces all of them.
bool tab6_2_gate_counts() {
  std::cout << "=== Table 6.2: Gate Count for MAC Implementations ===\n\n";

  const baseline::ConventionalTriMac conv;
  const est::Design drmp_d = est::drmp_design();

  Table t({"Implementation", "Gates", "SRAM (bits)"});
  for (const est::Design* d : {&conv.wifi, &conv.uwb, &conv.wimax}) {
    t.add_row({d->name(), Table::gates(d->total_gates()),
               std::to_string(d->total_sram_bits())});
  }
  t.add_row({"SUM of 3 conventional MACs", Table::gates(conv.total_gates()),
             std::to_string(conv.total_sram_bits())});
  t.add_row({drmp_d.name() + " (replaces all three)", Table::gates(drmp_d.total_gates()),
             std::to_string(drmp_d.total_sram_bits())});
  t.print(std::cout);

  const double saving = 100.0 * (1.0 - static_cast<double>(drmp_d.total_gates()) /
                                           static_cast<double>(conv.total_gates()));
  std::cout << "\nDRMP logic saving vs three separate MACs: " << Table::num(saving, 1)
            << "% (one CPU instead of three; shared CRC/crypto/frag/seq RFUs; "
               "the IRC + reconfiguration overhead is the price of "
               "flexibility, §3.6.2)\n";
  return true;
}

// Table 6.3 — Area of MAC Implementations at the 130 nm node.
bool tab6_3_area() {
  std::cout << "=== Table 6.3: Area of MAC Implementations (130 nm) ===\n\n";

  const baseline::ConventionalTriMac conv;
  const est::Design drmp_d = est::drmp_design();
  const est::Process p;

  Table t({"Implementation", "Logic+SRAM area (mm^2)"});
  for (const est::Design* d : {&conv.wifi, &conv.uwb, &conv.wimax}) {
    t.add_row({d->name(), Table::num(d->area_mm2(p), 2)});
  }
  t.add_row({"SUM of 3 conventional MACs", Table::num(conv.area_mm2(p), 2)});
  t.add_row({drmp_d.name(), Table::num(drmp_d.area_mm2(p), 2)});
  t.print(std::cout);

  std::cout << "\nDRMP area saving vs three separate MACs: "
            << Table::num(100.0 * (1.0 - drmp_d.area_mm2(p) / conv.area_mm2(p)), 1)
            << "%\n";
  return true;
}

// Table 6.4 — Power of MAC Implementations: activity-based power using the
// *measured* busy fractions from the cycle simulation as the per-block
// activity factors. Checked claim: the DRMP draws less than the three
// conventional MACs together.
bool tab6_4_power() {
  using est::PowerBreakdown;
  using est::PowerTechniques;
  std::cout << "=== Table 6.4: Power of MAC Implementations ===\n\n";

  const auto activity = measured_activity();
  const est::Process p;
  const baseline::ConventionalTriMac conv;
  const est::Design drmp_d = est::drmp_design();

  // Conventional MACs: clock gating but always-on (each IP must stay live
  // for its protocol); ~8% default activity for accelerators.
  PowerTechniques conv_tech;
  conv_tech.clock_gating = true;
  const auto p_wifi = est::estimate_power(conv.wifi, p, 120e6, {}, 0.08, conv_tech);
  const auto p_uwb = est::estimate_power(conv.uwb, p, 120e6, {}, 0.08, conv_tech);
  const auto p_wimax = est::estimate_power(conv.wimax, p, 160e6, {}, 0.08, conv_tech);
  const double conv_mw = p_wifi.total_mw() + p_uwb.total_mw() + p_wimax.total_mw();

  // DRMP at 200 MHz with measured activity + gating + PSO.
  PowerTechniques drmp_tech;
  drmp_tech.clock_gating = true;
  drmp_tech.power_shutoff = true;
  const auto p_drmp = est::estimate_power(drmp_d, p, 200e6, activity, 0.02, drmp_tech);

  Table t({"Implementation", "f (MHz)", "Dynamic (mW)", "Leakage (mW)", "Total (mW)"});
  auto row = [&](const std::string& n, double f, const PowerBreakdown& b) {
    t.add_row({n, Table::num(f / 1e6, 0), Table::num(b.dynamic_mw, 2),
               Table::num(b.leakage_mw, 2), Table::num(b.total_mw(), 2)});
  };
  row(conv.wifi.name(), 120e6, p_wifi);
  row(conv.uwb.name(), 120e6, p_uwb);
  row(conv.wimax.name(), 160e6, p_wimax);
  t.add_row({"SUM of 3 conventional MACs", "-", "-", "-", Table::num(conv_mw, 2)});
  row("DRMP (measured activity, gating+PSO)", 200e6, p_drmp);
  t.print(std::cout);

  std::cout << "\nDRMP power saving vs three always-on conventional MACs: "
            << Table::num(100.0 * (1.0 - p_drmp.total_mw() / conv_mw), 1)
            << "% — driven by the measured idle slack (Fig. 6.1).\n";
  return p_drmp.total_mw() < conv_mw;
}

// Table 6.5 — Estimates for the DRMP: the composed block-level budget of the
// DRMP itself (gates, SRAM, area, and the per-block power at measured
// activity), i.e. the paper's final architecture estimate.
bool tab6_5_drmp_estimates() {
  std::cout << "=== Table 6.5: Estimates for the DRMP ===\n\n";

  const auto activity = measured_activity();
  const est::Design d = est::drmp_design();
  const est::Process p;
  est::PowerTechniques tech;
  tech.clock_gating = true;
  tech.power_shutoff = true;

  Table t({"Block", "Gates", "SRAM (bits)", "Activity (%)", "Power (mW)"});
  for (const auto& b : d.blocks()) {
    double alpha = 0.02;
    auto it = activity.find(b.name);
    if (it != activity.end()) alpha = it->second;
    est::Design single(b.name, {b});
    const auto pw = est::estimate_power(single, p, 200e6, activity, 0.02, tech);
    t.add_row({b.name, Table::gates(b.gates), std::to_string(b.sram_bits),
               Table::num(100.0 * alpha, 3), Table::num(pw.total_mw(), 3)});
  }
  const auto pw_total = est::estimate_power(d, p, 200e6, activity, 0.02, tech);
  t.add_row({"TOTAL", Table::gates(d.total_gates()), std::to_string(d.total_sram_bits()),
             "-", Table::num(pw_total.total_mw(), 2)});
  t.print(std::cout);
  std::cout << "\narea @" << p.name << ": " << Table::num(d.area_mm2(p), 2)
            << " mm^2; power at 200 MHz with measured activity + gating/PSO: "
            << Table::num(pw_total.total_mw(), 1)
            << " mW — hand-held-compatible (thesis §6.1.4)\n";
  return true;
}

// Table 6.6 — Commercial Solutions for Various Wireless Standards: the
// qualitative comparison of thesis §6.4 (Figs. 6.2-6.5) between the DRMP and
// the era's commercial MAC silicon.
bool tab6_6_commercial() {
  std::cout << "=== Table 6.6: Commercial Wireless MAC Solutions vs DRMP "
               "(thesis §6.4) ===\n\n";
  Table t({"Solution", "Standards", "MAC implementation", "Multi-standard",
           "Dynamic reconfig", "Target"});
  t.add_row({"Sequans SQN1010", "802.16", "RISC + fixed accelerators", "no", "no",
             "WiMAX subscriber station"});
  t.add_row({"Fujitsu MB87M3400", "802.16", "ARM926 + fixed MAC HW", "no", "no",
             "WiMAX SoC"});
  t.add_row({"Intel WiMAX 2250", "802.16", "ARM9 + fixed MAC HW", "no", "no",
             "WiMAX baseband"});
  t.add_row({"Intel IXP1200", "any (packet)", "StrongARM + 6 microengines",
             "software only", "no", "network infrastructure"});
  t.add_row({"picoChip PC102", "PHY-oriented", "DSP array (PHY focus)", "partial",
             "per-task", "basestation PHY"});
  t.add_row({"QuickSilver ACM", "SDR PHY", "heterogeneous fractal nodes", "yes (PHY)",
             "cycle-by-cycle", "signal processing"});
  t.add_row({"Chameleon CS2000", "basestation", "32-bit datapath fabric", "yes (PHY)",
             "background load", "basestation (power-insensitive)"});
  t.add_row({"DRMP (this work)", "802.11/.15.3/.16 MAC", "CPU + coarse-grained RFUs",
             "yes (3 concurrent)", "packet-by-packet", "power-sensitive handhelds"});
  t.print(std::cout);
  std::cout << "\nReading: commercial MAC silicon of the era is single-standard "
               "fixed hardware; the reconfigurable platforms target the PHY "
               "layer and/or infrastructure. The DRMP's niche — a dynamically "
               "reconfigurable multi-standard MAC for handhelds — is "
               "unoccupied (thesis §2.4, §6.4).\n";
  return true;
}

struct Section {
  const char* name;
  bool (*run)();
};

constexpr Section kSections[] = {
    {"fig5_01_tx_1mode", fig5_01_tx_1mode},
    {"fig5_02_rx_1mode", fig5_02_rx_1mode},
    {"fig5_03_tx_3modes", fig5_03_tx_3modes},
    {"fig5_04_rx_3modes", fig5_04_rx_3modes},
    {"fig5_05_thm_timing", fig5_05_thm_timing},
    {"fig5_06_thr_timing", fig5_06_thr_timing},
    {"fig5_07_thm_magnified", fig5_07_thm_magnified},
    {"fig5_08_tx_200mhz", fig5_08_tx_200mhz},
    {"fig5_09_tx_50mhz", fig5_09_tx_50mhz},
    {"fig5_10_1v3_modes", fig5_10_1v3_modes},
    {"fig5_11_mode_share", fig5_11_mode_share},
    {"fig5_12_state_occupation", fig5_12_state_occupation},
    {"fig6_1_time_slack", fig6_1_time_slack},
    {"tab5_1_busy_tx", tab5_1_busy_tx},
    {"tab5_2_busy_rx", tab5_2_busy_rx},
    {"tab6_1_synth_wifi", tab6_1_synth_wifi},
    {"tab6_2_gate_counts", tab6_2_gate_counts},
    {"tab6_3_area", tab6_3_area},
    {"tab6_4_power", tab6_4_power},
    {"tab6_5_drmp_estimates", tab6_5_drmp_estimates},
    {"tab6_6_commercial", tab6_6_commercial},
};

}  // namespace
}  // namespace drmp::bench

int main(int argc, char** argv) {
  using drmp::bench::kSections;
  if (argc > 2) {
    std::cerr << "usage: bench_paper [--list | SECTION]\n";
    return 2;
  }
  const char* only = argc == 2 ? argv[1] : nullptr;
  if (only != nullptr && std::strcmp(only, "--list") == 0) {
    for (const auto& s : kSections) std::cout << s.name << "\n";
    return 0;
  }
  std::ios default_format(nullptr);
  default_format.copyfmt(std::cout);
  bool ran = false;
  bool ok = true;
  for (const auto& s : kSections) {
    if (only != nullptr && std::strcmp(only, s.name) != 0) continue;
    if (ran) std::cout << "\n";
    ran = true;
    // Sections set stream flags (print_waveform's std::fixed); each starts
    // from the default format, exactly as it prints when run alone.
    std::cout.copyfmt(default_format);
    if (!s.run()) {
      std::cerr << "bench_paper: " << s.name << ": checked claim failed\n";
      ok = false;
    }
  }
  if (!ran) {
    std::cerr << "bench_paper: unknown section '" << only
              << "' (see bench_paper --list)\n";
    return 2;
  }
  return ok ? 0 : 1;
}
