// Table 5.1 — Busy time of the various entities in the DRMP during
// transmission (3-mode concurrent run).
#include "bench_common.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

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
  est::Table t({"IRC controller", "Busy (us)", "Busy (%)"});
  const auto row = [&](const std::string& name, Cycle busy, double fraction) {
    t.add_row({name, est::Table::num(tbase.cycles_to_us(busy), 1),
               est::Table::num(100.0 * fraction, 3)});
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
  return 0;
}
