// The benchmark's own tests: derived-metric arithmetic on hand-built
// FleetStats values, and a tiny-size smoke pass of every workload through
// the same check path the benchmark applies to each repetition.
#include <gtest/gtest.h>

#include <algorithm>

#include "metrics.hpp"
#include "net/cell.hpp"
#include "scenario/scenario_engine.hpp"
#include "workloads.hpp"

namespace {

using drmp::scenario::CellStats;
using drmp::scenario::DeviceStats;
using drmp::scenario::FleetStats;
using drmp::scenario::ScenarioEngine;
using drmp::scenario::ScenarioSpec;
using namespace perfbench;

TEST(Metrics, TrafficDenominatorCountsOfferedMsdusOnly) {
  FleetStats fs;
  DeviceStats a;
  a.offered = {3, 2, 0};
  a.offered_bytes = {3000, 1000, 0};
  a.completed = {5, 2, 0};  // Two LinkMgr probe/association frames on top.
  a.tx_ok = {5, 2, 0};
  DeviceStats b;
  b.offered = {1, 0, 4};
  b.offered_bytes = {500, 0, 2000};
  b.completed = {1, 0, 4};
  b.tx_ok = {1, 0, 3};
  fs.devices = {a, b};
  EXPECT_EQ(traffic_msdus(fs), 10u);
  EXPECT_EQ(traffic_bytes(fs), 6500u);
}

TEST(Metrics, AirtimeEfficiencyPoolsEveryCellAndBand) {
  FleetStats fs;
  CellStats c1;
  c1.busy_cycles = {1000, 0, 0};
  c1.collided_airtime = {250, 0, 0};
  CellStats c2;
  c2.busy_cycles = {0, 0, 3000};
  c2.collided_airtime = {0, 0, 750};
  fs.cells = {c1, c2};
  EXPECT_DOUBLE_EQ(airtime_efficiency(fs), 0.75);
  EXPECT_EQ(airtime_efficiency(FleetStats{}), 0.0);
}

TEST(Metrics, EnergyPerTrafficBit) {
  FleetStats fs;
  DeviceStats a;  // 2 mW for 1 s at 200 MHz: 2 mJ.
  a.power.gated_mw = 2.0;
  a.cycles_run = 200'000'000;
  a.offered_bytes = {1000, 0, 0};
  DeviceStats b;  // 4 mW for 0.5 s: 2 mJ.
  b.power.gated_mw = 4.0;
  b.cycles_run = 100'000'000;
  b.offered_bytes = {0, 0, 1500};
  fs.devices = {a, b};
  // 4 mJ = 4e6 nJ over 2500 B = 20000 bits.
  EXPECT_DOUBLE_EQ(energy_nj_per_bit(fs, 200e6), 200.0);
  fs.devices[0].offered_bytes = {};
  fs.devices[1].offered_bytes = {};
  EXPECT_EQ(energy_nj_per_bit(fs, 200e6), 0.0);
}

TEST(Metrics, FailRatioAndMedian) {
  EXPECT_EQ(fail_ratio(0, 7), 0.0);
  EXPECT_DOUBLE_EQ(fail_ratio(1, 4), 0.25);
  EXPECT_EQ(fail_ratio(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Metrics, TestbenchPowerRecipeMatchesTheEngine) {
  ScenarioEngine engine(ScenarioSpec::mixed_three_standard(3, 7));
  const FleetStats fs = engine.run();
  ASSERT_EQ(fs.devices.size(), engine.device_count());
  for (std::size_t i = 0; i < engine.device_count(); ++i) {
    EXPECT_DOUBLE_EQ(gated_mw(engine.device(i), engine.cell(i).scheduler().now()),
                     fs.devices[i].power.gated_mw);
  }
}

TEST(Checks, RejectUndrainedUnpinnedAndUnrepeatableReps) {
  Rep r;
  EXPECT_NE(check_rep("cells_roaming", 7, Size::kTiny, r, nullptr), "");
  r.drained = true;
  EXPECT_EQ(check_rep("cells_roaming", 7, Size::kTiny, r, nullptr), "");
  r.failure = "payload differs";
  EXPECT_EQ(check_rep("cells_roaming", 7, Size::kTiny, r, nullptr), "payload differs");
  r.failure.clear();
  r.digest = pinned_digest("cells_roaming") ^ 1;
  EXPECT_NE(check_rep("cells_roaming", kDefaultSeed, Size::kFull, r, nullptr), "");
  r.digest = pinned_digest("cells_roaming");
  EXPECT_EQ(check_rep("cells_roaming", kDefaultSeed, Size::kFull, r, nullptr), "");
  Rep again = r;
  again.counts["sim.ticks_executed"] = 1.0;
  EXPECT_NE(check_rep("cells_roaming", kDefaultSeed, Size::kFull, again, &r), "");
}

TEST(Checks, InputZeroIsTheSeedAndTheOthersAreDistinct) {
  EXPECT_EQ(instance_seed(kDefaultSeed, 0), kDefaultSeed);
  std::vector<u64> seeds;
  for (std::size_t i = 0; i < kInstances; ++i) seeds.push_back(instance_seed(kDefaultSeed, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_EQ(instance_seed(kDefaultSeed, 1), instance_seed(kDefaultSeed, 1));
  EXPECT_NE(instance_seed(kDefaultSeed, 1), instance_seed(kDefaultSeed + 1, 1));
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, TinyRunsPassTheCheckPathAndRepeat) {
  const std::string& w = GetParam();
  const Rep a = run_rep(w, 7, Size::kTiny, Arm{}, nullptr);
  EXPECT_EQ(check_rep(w, 7, Size::kTiny, a, nullptr), "");
  const Rep b = run_rep(w, 7, Size::kTiny, Arm{}, nullptr);
  EXPECT_EQ(check_rep(w, 7, Size::kTiny, b, &a), "");
  EXPECT_GT(a.msdus, 0.0);
  EXPECT_GT(a.sim_ms, 0.0);
  EXPECT_GT(a.energy_nj_per_bit, 0.0);
  EXPECT_GT(a.counts.at("sim.ticks_executed"), 0.0);
}

TEST_P(Smoke, TracedArmsReproduceTheReferenceDigest) {
  const std::string& w = GetParam();
  SpanRecorder spans;
  const Rep ref = run_rep(w, 7, Size::kTiny, Arm{}, &spans);
  const std::vector<Arm> arms = is_engine_workload(w)
                                    ? std::vector<Arm>{{.recorder = true}, {.workers = 2}}
                                    : std::vector<Arm>{{.scope_trace = false}};
  for (const Arm& arm : arms) {
    EXPECT_EQ(run_rep(w, 7, Size::kTiny, arm, &spans).digest, ref.digest);
  }
  ASSERT_FALSE(spans.spans().empty());
  EXPECT_EQ(spans.spans().front().parent, -1);
  EXPECT_EQ(spans.spans()[1].parent, 0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke, ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
