// Fig. 5.12 — State occupation in the Task-handler: the fraction of time the
// TH_M/TH_R controllers spend in each statechart state over a sustained
// 3-mode run. The paper uses this to show the handlers idle most of the time
// and, when active, are dominated by waiting states (time slack).
#include "bench_common.hpp"

#include "irc/task_handler.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  std::cout << "=== Fig 5.12: State occupation in the Task-handlers "
               "(3 modes x 3 packets) ===\n\n";
  run_three_mode_tx(tb, 3, 1000);

  irc::Irc& irc = tb.device().irc();
  {
    est::Table t({"TH_M state", "mode A %", "mode B %", "mode C %"});
    for (int s = 0; s <= static_cast<int>(irc::ThMState::UseRfut2); ++s) {
      std::vector<std::string> row = {to_string(static_cast<irc::ThMState>(s))};
      for (const Mode m : {Mode::A, Mode::B, Mode::C}) {
        const sim::StateOccupancy& o = irc.handler(m).thm_occupancy();
        row.push_back(est::Table::num(
            100.0 * static_cast<double>(o.cycles_in(s)) / static_cast<double>(o.total()), 3));
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }
  std::cout << "\n";
  {
    est::Table t({"TH_R state", "mode A %", "mode B %", "mode C %"});
    for (int s = 0; s <= static_cast<int>(irc::ThRState::UseRfut2); ++s) {
      std::vector<std::string> row = {to_string(static_cast<irc::ThRState>(s))};
      for (const Mode m : {Mode::A, Mode::B, Mode::C}) {
        const sim::StateOccupancy& o = irc.handler(m).thr_occupancy();
        row.push_back(est::Table::num(
            100.0 * static_cast<double>(o.cycles_in(s)) / static_cast<double>(o.total()), 3));
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }
  std::cout << "\nReading: both handlers sit in IDLE for the overwhelming "
               "majority of cycles; active time is dominated by WAIT4_RFUDONE "
               "(TH_M, waiting on coarse-grained RFU latency) — the idle slack "
               "the paper's power argument builds on (§5.5.1).\n";
  return 0;
}
