#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "crypto/crc.hpp"
#include "drmp/testbench.hpp"
#include "est/gates.hpp"
#include "est/power.hpp"
#include "metrics.hpp"
#include "net/cell.hpp"
#include "scenario/scenario_engine.hpp"
#include "sim/stats.hpp"

namespace perfbench {

using drmp::Bytes;
using drmp::DrmpDevice;
using drmp::kNumModes;
using drmp::Mode;
using drmp::u32;
using drmp::u8;
using drmp::scenario::FleetStats;
using drmp::scenario::ScenarioEngine;
using drmp::scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

namespace {

constexpr Cycle kBudgetCycles = 40'000'000;  // Per wait on paper_testbench.
// The roaming cells need about 450 M cycles to drain, past the factory's
// 120 M default.
constexpr Cycle kEngineBudgetCycles = 1'000'000'000;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string hex(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Payload bytes drawn from (seed, stream): the seed shapes every input.
Bytes seeded_payload(u64 seed, u64 stream, std::size_t n) {
  u64 state = seed * 0x2545f4914f6cdd1dull + stream;
  Bytes b(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const u64 r = drmp::splitmix64(state);
    for (std::size_t k = 0; k < 8 && i + k < n; ++k) b[i + k] = static_cast<u8>(r >> (8 * k));
  }
  return b;
}

/// Modelled occupancy summed over devices (maximum for the dispatch latency).
struct Occupancy {
  u64 cpu_busy = 0, cpu_total = 0, isr = 0, max_dispatch = 0;
  u64 bus_busy = 0, bus_total = 0;
  u64 rfu_exec = 0, rfu_reconfig = 0, rfu_busy = 0, rfu_total = 0;
  u64 trace_events = 0;  ///< Scope-trace change events retained (sim::TraceRecorder).

  void add(DrmpDevice& d) {
    cpu_busy += d.cpu().busy_cycles();
    cpu_total += d.cpu().total_cycles();
    isr += d.cpu().isr_invocations();
    max_dispatch = std::max<u64>(max_dispatch, d.cpu().max_dispatch_latency());
    bus_busy += d.bus().busy_cycles();
    bus_total += d.bus().total_cycles();
    for (const drmp::rfu::Rfu* r : d.rfus()) {
      rfu_exec += r->exec_count();
      rfu_reconfig += r->reconfig_count();
      rfu_busy += r->busy_cycles();
      rfu_total += d.bus().total_cycles();
    }
    for (const std::string& name : d.trace().channel_names()) {
      trace_events += d.trace().channel_const(name).events().size();
    }
  }

  static double frac(u64 num, u64 den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }

  void put(std::map<std::string, double>& c) const {
    c["cpu.busy_frac"] = frac(cpu_busy, cpu_total);
    c["cpu.isr_invocations"] = static_cast<double>(isr);
    c["cpu.max_dispatch_latency_cycles"] = static_cast<double>(max_dispatch);
    c["bus.busy_frac"] = frac(bus_busy, bus_total);
    c["rfu.exec_count"] = static_cast<double>(rfu_exec);
    c["rfu.reconfig_count"] = static_cast<double>(rfu_reconfig);
    c["rfu.busy_frac"] = frac(rfu_busy, rfu_total);
    c["sim.trace_events"] = static_cast<double>(trace_events);
  }

  /// The counters the trace-off equivalence arm must reproduce.
  void mix(drmp::sim::Digest& d) const {
    for (u64 v : {cpu_busy, cpu_total, isr, max_dispatch, bus_busy, bus_total, rfu_exec,
                  rfu_reconfig, rfu_busy}) {
      d.mix(v);
    }
  }
};

ScenarioSpec engine_spec(const std::string& w, u64 seed, Size size, const Arm& arm) {
  const bool tiny = size == Size::kTiny;
  ScenarioSpec spec;
  if (w == "cells_roaming") {
    spec = ScenarioSpec::roaming_wifi_cells(tiny ? 3 : 16, seed, tiny ? 2 : 48);
  } else {
    throw std::invalid_argument("perfbench: unknown engine workload " + w);
  }
  spec.max_cycles = kEngineBudgetCycles;
  spec.worker_threads = arm.workers;
  spec.trace.enabled = arm.recorder;
  return spec;
}

Rep run_engine(const std::string& w, u64 seed, Size size, const Arm& arm, SpanRecorder* spans) {
  ScenarioSpec spec = engine_spec(w, seed, size, arm);
  const double f = spec.cells.front().stations.front().cfg.arch_freq_hz;

  Rep rep;
  const auto t0 = Clock::now();
  std::unique_ptr<ScenarioEngine> engine;
  {
    ScopedSpan s(spans, "ScenarioEngine::ScenarioEngine");
    engine = std::make_unique<ScenarioEngine>(std::move(spec));
  }
  const auto t1 = Clock::now();
  FleetStats fs;
  {
    ScopedSpan s(spans, "ScenarioEngine::run");
    fs = engine->run();
  }
  const auto t2 = Clock::now();
  rep.setup_s = seconds(t0, t1);
  rep.run_s = seconds(t1, t2);
  {
    ScopedSpan s(spans, "FleetStats::full_digest");
    rep.digest = fs.full_digest();
  }
  {
    ScopedSpan s(spans, "FleetStats::report");
    const std::string report = fs.report();
    rep.report_hash = drmp::crypto::Crc32::compute(
        {reinterpret_cast<const u8*>(report.data()), report.size()});
  }
  rep.drained = fs.all_drained;
  rep.msdus = static_cast<double>(traffic_msdus(fs));
  rep.sim_cycles = fs.lockstep_cycles;
  rep.sim_ms = mean_device_cycles(fs) / f * 1e3;
  rep.energy_nj_per_bit = energy_nj_per_bit(fs, f);

  auto& c = rep.counts;
  c["sim.ticks_executed"] = static_cast<double>(fs.ticks_executed);
  c["sim.medium_ticks_executed"] = static_cast<double>(fs.medium_ticks_executed);
  c["sim.skip_ratio"] = fs.skip_ratio();
  c["sim.ff_events"] = static_cast<double>(fs.ff_events);
  c["sim.wheel_cascades"] = static_cast<double>(fs.wheel_cascades);
  c["sim.wheel_purges"] = static_cast<double>(fs.wheel_purges);
  c["sim.wheel_depth_max"] = static_cast<double>(fs.wheel_depth_max);
  c["sim.lockstep_rounds"] = static_cast<double>(fs.lockstep_rounds);
  c["sim.lane_rounds_skipped"] = static_cast<double>(fs.lane_rounds_skipped);
  c["sim.lane_stall_cycles"] = static_cast<double>(fs.lane_stall_cycles);
  Occupancy occ;
  for (std::size_t i = 0; i < engine->device_count(); ++i) occ.add(engine->device(i));
  occ.put(c);
  u64 retries = 0;
  for (const auto& ds : fs.devices) {
    for (std::size_t m = 0; m < kNumModes; ++m) retries += ds.retries[m];
  }
  c["mac.retries"] = static_cast<double>(retries);
  c["mac.defers"] = static_cast<double>(fs.total_defers());
  c["mac.frames_expired"] = static_cast<double>(fs.total_frames_expired());
  c["mac.handoffs"] = static_cast<double>(fs.total_handoffs());
  c["mac.reassociations"] = static_cast<double>(fs.total_reassociations());
  c["mac.mean_handoff_latency_cycles"] = fs.mean_handoff_latency_cycles();
  u64 collided = 0;
  for (const auto& cs : fs.cells) {
    for (std::size_t m = 0; m < kNumModes; ++m) collided += cs.collided_frames[m];
  }
  c["net.collided_frames"] = static_cast<double>(collided);
  c["net.airtime_efficiency"] = airtime_efficiency(fs);
  c["net.topology_epochs"] = static_cast<double>(fs.total_topology_epochs());
  c["est.fleet_gated_mw"] = fs.fleet_gated_mw();

  if (arm.recorder) {
    u64 events = 0;
    u64 dropped = 0;
    for (std::size_t i = 0; i < engine->cell_count(); ++i) {
      if (const auto* r = engine->cell(i).recorder()) {
        events += r->size();
        dropped += r->dropped();
      }
    }
    const auto e0 = Clock::now();
    std::string json;
    {
      ScopedSpan s(spans, "ScenarioEngine::chrome_trace");
      json = engine->chrome_trace();
    }
    rep.export_s = seconds(e0, Clock::now());
    c["obs.recorder_events"] = static_cast<double>(events);
    c["obs.recorder_dropped"] = static_cast<double>(dropped);
    c["obs.export_bytes"] = static_cast<double>(json.size());
  }
  return rep;
}

Rep run_testbench(u64 seed, Size size, const Arm& arm, SpanRecorder* spans) {
  const u32 per_mode = size == Size::kTiny ? 1 : 3;
  // MSDU sizes up to 32 B under Figs. 5.3 (Tx, 1000 B) and 5.4 (Rx, 800 B), in
  // whole DES blocks and clear of the 1024 B fragmentation threshold.
  auto msdu = [seed](u64 stream, std::size_t base) {
    u64 state = seed ^ (stream << 32);
    return seeded_payload(seed, stream, base - 8 * (drmp::splitmix64(state) % 5));
  };
  drmp::DrmpConfig cfg = drmp::DrmpConfig::standard_three_mode();
  cfg.trace_enabled = arm.scope_trace;
  const double f = cfg.arch_freq_hz;

  Rep rep;
  const auto t0 = Clock::now();
  std::unique_ptr<drmp::Testbench> tb;
  {
    ScopedSpan s(spans, "Testbench::Testbench");
    tb = std::make_unique<drmp::Testbench>(cfg);
  }
  const auto t1 = Clock::now();

  bool drained = true;
  u64 bits = 0;  // Tx plus Rx payload bits.
  for (u32 k = 0; k < per_mode; ++k) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      Bytes payload = msdu(16 * m + k, 1000);
      bits += 8 * payload.size();
      ScopedSpan s(spans, "Testbench::send_async");
      tb->send_async(drmp::mode_from_index(m), std::move(payload));
    }
  }
  for (std::size_t m = 0; m < kNumModes; ++m) {
    ScopedSpan s(spans, "Testbench::wait_tx_count");
    drained &= tb->wait_tx_count(drmp::mode_from_index(m), per_mode, kBudgetCycles);
  }
  std::vector<Bytes> injected;
  std::vector<std::optional<Bytes>> received;
  for (u32 k = 0; k < per_mode && drained; ++k) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      injected.push_back(msdu(16 * m + k + 8, 800));
      bits += 8 * injected.back().size();
      ScopedSpan s(spans, "Testbench::inject_and_wait");
      received.push_back(
          tb->inject_and_wait(drmp::mode_from_index(m), injected.back(), k + 1, kBudgetCycles));
      drained &= received.back().has_value();
    }
  }
  const auto t2 = Clock::now();
  rep.setup_s = seconds(t0, t1);
  rep.run_s = seconds(t1, t2);
  rep.drained = drained;

  drmp::sim::Digest d;
  const Cycle now = tb->scheduler().now();
  d.mix(now);
  for (std::size_t m = 0; m < kNumModes; ++m) {
    const Mode mode = drmp::mode_from_index(m);
    if (tb->tx_completions(mode) != per_mode || tb->tx_successes(mode) != per_mode) {
      rep.failure = "Tx MSDU on mode " + std::string(drmp::to_string(mode)) + " completed not-ok";
    }
    d.mix(tb->tx_successes(mode));
    for (double us : tb->tx_latencies_us(mode)) d.mix(std::bit_cast<u64>(us));
  }
  for (std::size_t i = 0; i < received.size(); ++i) {
    if (!received[i] || *received[i] != injected[i]) {
      rep.failure = "Rx payload " + std::to_string(i) + " differs from the one injected";
      continue;
    }
    d.mix(drmp::crypto::Crc32::compute(*received[i]));
  }
  Occupancy occ;
  occ.add(tb->device());
  occ.mix(d);
  rep.digest = d.value();

  const double mw = gated_mw(tb->device(), now);
  rep.msdus = 2.0 * kNumModes * per_mode;
  rep.sim_cycles = now;
  rep.sim_ms = static_cast<double>(now) / f * 1e3;
  rep.energy_nj_per_bit = energy_nj(mw, now, f) / static_cast<double>(bits);

  auto& c = rep.counts;
  // The legacy run_until path does not count its ticks: it ticks every
  // component every cycle.
  const u64 counted = tb->scheduler().ticks_executed();
  c["sim.ticks_executed"] =
      static_cast<double>(counted != 0 ? counted : now * tb->scheduler().component_count());
  occ.put(c);
  c["est.fleet_gated_mw"] = mw;
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_testbench", "cells_roaming"};
  return names;
}

bool is_workload(const std::string& name) {
  const auto& n = workload_names();
  return std::find(n.begin(), n.end(), name) != n.end();
}

bool is_engine_workload(const std::string& name) {
  return is_workload(name) && name != "paper_testbench";
}

u64 instance_seed(u64 seed, std::size_t instance) {
  if (instance == 0) return seed;
  u64 state = seed ^ (static_cast<u64>(instance) << 32);
  return drmp::splitmix64(state);
}

u64 pinned_digest(const std::string& workload) {
  if (workload == "paper_testbench") return 0x08f882544b25e8f6ull;
  if (workload == "cells_roaming") return 0x84452875006e2b30ull;
  throw std::invalid_argument("perfbench: unknown workload " + workload);
}

Rep run_rep(const std::string& workload, u64 seed, Size size, const Arm& arm,
            SpanRecorder* spans) {
  ScopedSpan s(spans, "rep " + workload);
  if (workload == "paper_testbench") return run_testbench(seed, size, arm, spans);
  return run_engine(workload, seed, size, arm, spans);
}

std::string check_rep(const std::string& workload, u64 seed, Size size, const Rep& rep,
                      const Rep* first) {
  if (!rep.drained) return "did not drain within its budget";
  if (!rep.failure.empty()) return rep.failure;
  if (seed == kDefaultSeed && size == Size::kFull && rep.digest != pinned_digest(workload)) {
    return "digest " + hex(rep.digest) + " differs from the pinned " +
           hex(pinned_digest(workload));
  }
  if (first != nullptr) {
    if (rep.digest != first->digest) return "digest differs between repetitions";
    if (rep.report_hash != first->report_hash) return "report differs between repetitions";
    if (rep.counts != first->counts) return "per-layer counts differ between repetitions";
  }
  return {};
}

double gated_mw(DrmpDevice& dev, Cycle cycles) {
  const double total = cycles > 0 ? static_cast<double>(cycles) : 1.0;
  std::map<std::string, double> activity;
  for (const drmp::rfu::Rfu* r : dev.rfus()) {
    const auto it = drmp::est::drmp_rfu_blocks().find(r->name());
    if (it != drmp::est::drmp_rfu_blocks().end()) {
      activity[it->second.name] = static_cast<double>(r->busy_cycles()) / total;
    }
  }
  activity["cpu_core"] = dev.cpu().busy_fraction();
  activity["packet_bus+arbiter"] = static_cast<double>(dev.bus().busy_cycles()) / total;
  drmp::est::PowerTechniques gated;
  gated.clock_gating = true;
  gated.power_shutoff = true;
  constexpr double kDefaultActivity = 0.02;
  return drmp::est::estimate_power(drmp::est::drmp_design(), drmp::est::Process{},
                                   dev.config().arch_freq_hz, activity, kDefaultActivity, gated)
      .total_mw();
}

}  // namespace perfbench
