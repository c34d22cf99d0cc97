// The benchmark's two canonical workloads, each run through the simulator's
// public entry points (drmp::Testbench, scenario::ScenarioEngine):
//
//   paper_testbench  one Testbench device, scope trace on: 3 Tx MSDUs per
//                    mode on all three modes at once, then 3 Rx MSDUs per
//                    mode through inject_and_wait (the legacy run_until path).
//   cells_roaming    ScenarioSpec::roaming_wifi_cells(16, seed, 48).
//
// One call of run_rep() is one repetition: build, run until drained, check,
// and read the per-layer counters from the public accessors.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "spans.hpp"

namespace drmp {
class DrmpDevice;
}

namespace perfbench {

using drmp::Cycle;
using drmp::u64;

inline constexpr u64 kDefaultSeed = 2008;

/// Inputs one end-to-end run cycles through, all drawn from its seed. Their
/// host times and modelled figures are averaged, which keeps the
/// seed-to-seed spread of a single input's drain time out of the run.
inline constexpr std::size_t kInstances = 4;

/// The seed of input `instance` of a run seeded with `seed`. Instance 0 is
/// `seed` itself, so the pinned digest applies to it at kDefaultSeed.
u64 instance_seed(u64 seed, std::size_t instance);

/// kTiny shrinks every workload to a smoke-test size (no pinned digest).
enum class Size { kFull, kTiny };

/// One execution variant of a workload. The default is the end-to-end arm;
/// the others are the traced run's equivalence arms.
struct Arm {
  bool recorder = false;    ///< ScenarioSpec::trace.enabled (engine workloads).
  unsigned workers = 1;     ///< ScenarioSpec::worker_threads (engine workloads).
  bool scope_trace = true;  ///< DrmpConfig::trace_enabled (paper_testbench).
};

/// What one repetition measured.
struct Rep {
  double setup_s = 0.0;  ///< Host time to build the Testbench or engine.
  double run_s = 0.0;    ///< Host time from the first cycle until drained.
  double export_s = 0.0;  ///< Host time of chrome_trace() (recorder arm only).
  bool drained = false;
  std::string failure;  ///< Failed payload or outcome check; empty if none.
  /// FleetStats::full_digest, or on paper_testbench a digest of the
  /// simulated cycles, per-MSDU Tx latencies, delivered payloads and the
  /// modelled occupancy counters.
  u64 digest = 0;
  u64 report_hash = 0;  ///< CRC-32 of FleetStats::report() (engine only).
  double msdus = 0.0;   ///< Traffic MSDUs resolved (Tx + Rx on paper_testbench).
  Cycle sim_cycles = 0;  ///< Simulated cycles until drained.
  double sim_ms = 0.0;
  double energy_nj_per_bit = 0.0;
  /// Per-layer counts, keyed by their metric names. They repeat exactly.
  std::map<std::string, double> counts;
};

const std::vector<std::string>& workload_names();
bool is_workload(const std::string& name);
bool is_engine_workload(const std::string& name);

/// The digest every repetition must reproduce at kDefaultSeed, Size::kFull.
u64 pinned_digest(const std::string& workload);

Rep run_rep(const std::string& workload, u64 seed, Size size, const Arm& arm,
            SpanRecorder* spans);

/// Why `rep` fails, or "" when it passes: it did not drain, a payload or
/// outcome check failed, the digest differs from the pinned one (default
/// seed, full size), or it does not repeat `first` (digest, report, counts).
std::string check_rep(const std::string& workload, u64 seed, Size size, const Rep& rep,
                      const Rep* first);

/// Gated-power estimate (clock gating + power shut-off) of one device over
/// `cycles` cycles, from its measured busy counters: the recipe of the
/// engine's per-station DevicePower::gated_mw, applied to a Testbench device.
double gated_mw(drmp::DrmpDevice& dev, Cycle cycles);

}  // namespace perfbench
