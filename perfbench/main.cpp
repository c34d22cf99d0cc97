// drmp_perfbench — runs one canonical workload for a fixed host-time budget
// and prints its metrics as the last line of standard output:
//
//   {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
//   drmp_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--spans PATH]
//
// --trace 0 (the end-to-end run) makes one untimed warm-up repetition, then
// cycles through kInstances inputs drawn from the seed, starting another
// repetition only while it is expected to end within S seconds. It reports
// the end-to-end metrics: host times as each input's median averaged over
// the inputs, and the modelled design's figures, which repeat exactly,
// averaged over the inputs.
// --trace 1 (the traced run) interleaves the workload's arms — the
// reference arm plus the flight-recorder, 2-worker or scope-trace-off arm —
// checks that every arm reproduces the reference digest, records a span
// around every call into the simulator (written to PATH as Chrome-trace
// JSON) and reports the per-layer metrics. A metric that does not apply to
// a workload reads 0. Progress goes to standard error.
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 2;  // Fewest passes over the traced run's arms.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s"},   {"host_us_per_msdu", "us"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"}, {"sim_ms", "ms"},      {"sim_energy_nj_per_bit", "nJ/bit"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.ticks_executed", "count"},
    {"sim.host_ns_per_tick", "ns"},
    {"sim.medium_ticks_executed", "count"},
    {"sim.skip_ratio", "ratio"},
    {"sim.ff_events", "count"},
    {"sim.wheel_cascades", "count"},
    {"sim.wheel_purges", "count"},
    {"sim.wheel_depth_max", "count"},
    {"sim.lockstep_rounds", "count"},
    {"sim.lane_rounds_skipped", "count"},
    {"sim.lane_stall_cycles", "cycles"},
    {"sim.host_us_per_round", "us"},
    {"sim.parallel_speedup", "x"},
    {"sim.legacy_mcycles_per_s", "Mcyc/s"},
    {"sim.trace_events", "count"},
    {"sim.scope_trace_share", "ratio"},
    {"cpu.busy_frac", "ratio"},
    {"cpu.isr_invocations", "count"},
    {"cpu.max_dispatch_latency_cycles", "cycles"},
    {"bus.busy_frac", "ratio"},
    {"rfu.exec_count", "count"},
    {"rfu.reconfig_count", "count"},
    {"rfu.busy_frac", "ratio"},
    {"mac.retries", "count"},
    {"mac.defers", "count"},
    {"mac.frames_expired", "count"},
    {"mac.handoffs", "count"},
    {"mac.reassociations", "count"},
    {"mac.mean_handoff_latency_cycles", "cycles"},
    {"net.collided_frames", "count"},
    {"net.airtime_efficiency", "ratio"},
    {"net.topology_epochs", "count"},
    {"est.fleet_gated_mw", "mW"},
    {"obs.recorder_overhead", "x"},
    {"obs.recorder_events", "count"},
    {"obs.recorder_dropped", "count"},
    {"obs.export_s", "s"},
    {"obs.export_bytes", "B"},
};

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

void usage() {
  std::cerr << "usage: drmp_perfbench --workload {paper_testbench|cells_roaming}"
               " [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o.trace = val == "1";
    } else if (key == "--spans") {
      o.spans_path = val;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str())) return false;
  }
  return is_workload(o.workload) && o.seconds >= 0.0;
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::string num(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);  // Shortest round trip.
  return std::string(buf, res.ptr);
}

template <class Values>
void print_result(bool correct, u64 attempted, u64 failed, const Values& defs,
                  const std::map<std::string, double>& values) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : defs) {
    const auto it = values.find(m.name);
    out += first ? "" : ", ";
    first = false;
    out += std::string("\"") + m.name + "\": {\"value\": " +
           num(it == values.end() ? 0.0 : it->second) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void log_rep(const std::string& arm, std::size_t i, const Rep& r, const std::string& why) {
  std::fprintf(stderr, "%-9s rep %2zu  setup %.4f s  run %.4f s  digest %016llx%s%s\n",
               arm.c_str(), i, r.setup_s, r.run_s, static_cast<unsigned long long>(r.digest),
               why.empty() ? "" : "  FAIL: ", why.c_str());
}

template <class F>
std::vector<double> collect(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

/// True while one more step of `step_s` (the median so far) is expected to
/// end within the budget, or fewer than `min_steps` have run.
bool keep_going(Clock::time_point start, double budget_s, const std::vector<double>& step_s,
                std::size_t min_steps) {
  return step_s.size() < min_steps || elapsed_s(start) + median(step_s) <= budget_s;
}

/// The end-to-end run: the workload's reference arm, untraced, cycling
/// through the kInstances inputs drawn from the seed.
int end_to_end(const Options& o) {
  std::vector<std::vector<Rep>> reps(kInstances);
  std::vector<double> rep_s;  // Host time of each whole repetition.
  u64 failed = 0;
  const auto start = Clock::now();
  // An untimed warm-up repetition of input 0 fills the caches and the heap.
  // It is checked like the others, and input 0 must repeat it.
  const Rep warm = run_rep(o.workload, o.seed, Size::kFull, Arm{}, nullptr);
  const std::string warm_why = check_rep(o.workload, o.seed, Size::kFull, warm, nullptr);
  failed += !warm_why.empty();
  log_rep("warm-up", 0, warm, warm_why);
  while (keep_going(start, o.seconds, rep_s, kInstances)) {
    const std::size_t i = rep_s.size() % kInstances;
    const u64 seed = instance_seed(o.seed, i);
    const auto t0 = Clock::now();
    Rep r = run_rep(o.workload, seed, Size::kFull, Arm{}, nullptr);
    const Rep* first = i == 0 ? &warm : reps[i].empty() ? nullptr : &reps[i].front();
    const std::string why = check_rep(o.workload, seed, Size::kFull, r, first);
    rep_s.push_back(elapsed_s(t0));
    failed += !why.empty();
    log_rep("e2e/" + std::to_string(i), reps[i].size(), r, why);
    reps[i].push_back(std::move(r));
  }
  // Host times: each input's median over its repetitions, averaged over the
  // inputs. Modelled figures: averaged over the inputs (they repeat exactly).
  auto host = [&](auto&& f) {
    double sum = 0.0;
    for (const auto& v : reps) sum += median(collect(v, f));
    return sum / kInstances;
  };
  auto modelled = [&](double Rep::*field) {
    double sum = 0.0;
    for (const auto& v : reps) sum += v.front().*field;
    return sum / kInstances;
  };
  std::map<std::string, double> m;
  m["run_s"] = host([](const Rep& r) { return r.run_s; });
  m["setup_s"] = host([](const Rep& r) { return r.setup_s; });
  m["host_us_per_msdu"] =
      host([](const Rep& r) { return r.msdus > 0 ? r.run_s * 1e6 / r.msdus : 0.0; });
  m["peak_rss_mb"] = peak_rss_mb();
  m["sim_ms"] = modelled(&Rep::sim_ms);
  m["sim_energy_nj_per_bit"] = modelled(&Rep::energy_nj_per_bit);
  const u64 attempted = rep_s.size() + 1;  // With the warm-up.
  std::fprintf(stderr, "%s seed %llu: %llu reps over %zu inputs, %llu failed, fail_ratio %g\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(attempted), kInstances,
               static_cast<unsigned long long>(failed), fail_ratio(failed, attempted));
  print_result(failed == 0, attempted, failed, kEndToEnd, m);
  return 0;
}

/// The traced run: every arm of the workload, interleaved, with spans on.
int traced(const Options& o) {
  const bool engine = is_engine_workload(o.workload);
  // Arm 0 is the reference every other arm must reproduce bit for bit.
  std::vector<std::pair<std::string, Arm>> arms;
  if (engine) {
    arms.push_back({"plain", Arm{}});
    arms.push_back({"recorder", Arm{.recorder = true}});
    // Each coupled cell is a lane of its own, so two workers can split them.
    if (o.workload == "cells_roaming") arms.push_back({"workers2", Arm{.workers = 2}});
  } else {
    arms.push_back({"scope_on", Arm{}});
    arms.push_back({"scope_off", Arm{.scope_trace = false}});
  }

  SpanRecorder spans;
  std::vector<std::vector<Rep>> reps(arms.size());
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<double> pass_s;  // Host time of each pass over the arms.
  const auto start = Clock::now();
  while (keep_going(start, o.seconds, pass_s, kMinPasses)) {
    const auto t0 = Clock::now();
    for (std::size_t a = 0; a < arms.size(); ++a) {
      spans.set_rep(attempted++);
      Rep r = run_rep(o.workload, o.seed, Size::kFull, arms[a].second, &spans);
      std::string why = check_rep(o.workload, o.seed, Size::kFull, r,
                                  reps[a].empty() ? nullptr : &reps[a].front());
      if (why.empty() && a > 0 && r.digest != reps[0].front().digest) {
        why = "digest differs from the " + arms[0].first + " arm";
      }
      failed += !why.empty();
      log_rep(arms[a].first, reps[a].size(), r, why);
      reps[a].push_back(std::move(r));
    }
    pass_s.push_back(elapsed_s(t0));
  }

  auto median_of = [&](const std::string& arm, double Rep::*field) {
    for (std::size_t a = 0; a < arms.size(); ++a) {
      if (arms[a].first == arm) {
        return median(collect(reps[a], [&](const Rep& r) { return r.*field; }));
      }
    }
    return 0.0;
  };
  const Rep& ref = reps[0].front();
  const double run_ref = median_of(arms[0].first, &Rep::run_s);
  std::map<std::string, double> m = ref.counts;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  m["sim.host_ns_per_tick"] = per(run_ref * 1e9, m["sim.ticks_executed"]);
  m["sim.host_us_per_round"] = per(run_ref * 1e6, m["sim.lockstep_rounds"]);
  if (engine) {
    const Rep& rec = reps[1].front();
    for (const char* k : {"obs.recorder_events", "obs.recorder_dropped", "obs.export_bytes"}) {
      m[k] = rec.counts.at(k);
    }
    m["obs.export_s"] = median_of("recorder", &Rep::export_s);
    m["obs.recorder_overhead"] = per(median_of("recorder", &Rep::run_s), run_ref);
    m["sim.parallel_speedup"] = per(run_ref, median_of("workers2", &Rep::run_s));
  } else {
    m["sim.legacy_mcycles_per_s"] = per(static_cast<double>(ref.sim_cycles), run_ref * 1e6);
    m["sim.scope_trace_share"] = 1.0 - per(median_of("scope_off", &Rep::run_s), run_ref);
  }

  if (!o.spans_path.empty() && !spans.write(o.spans_path)) {
    std::cerr << "drmp_perfbench: cannot write spans to " << o.spans_path << "\n";
    return 1;
  }
  std::fprintf(stderr, "%s seed %llu traced: %llu reps over %zu arms, %llu failed, %zu spans\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(attempted), arms.size(),
               static_cast<unsigned long long>(failed), spans.spans().size());
  print_result(failed == 0, attempted, failed, kPerLayer, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  try {
    return o.trace ? traced(o) : end_to_end(o);
  } catch (const std::exception& e) {
    std::cerr << "drmp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
