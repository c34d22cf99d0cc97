// Simulation-kernel tests: scheduler determinism, derived clocks, trace
// bookkeeping, statistics collectors.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "drmp/testbench.hpp"
#include "sim/clock.hpp"
#include "sim/multi_scheduler.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace drmp::sim {
namespace {

class Counter : public Clockable {
 public:
  void tick() override { ++ticks; }
  Cycle ticks = 0;
};

/// Appends its id to a shared log on every tick — pins down exact tick order.
class OrderLogger : public Clockable {
 public:
  OrderLogger(std::vector<int>& log, int id) : log_(log), id_(id) {}
  void tick() override { log_.push_back(id_); }

 private:
  std::vector<int>& log_;
  int id_;
};

TEST(Scheduler, RunsRegisteredComponentsEveryCycle) {
  Scheduler s(200e6);
  Counter a, b;
  s.add(a, "a");
  s.add(b, "b");
  s.run_cycles(100);
  EXPECT_EQ(a.ticks, 100u);
  EXPECT_EQ(b.ticks, 100u);
  EXPECT_EQ(s.now(), 100u);
}

TEST(Scheduler, RunUntilStopsAtPredicate) {
  Scheduler s(200e6);
  Counter a;
  s.add(a, "a");
  EXPECT_TRUE(s.run_until([&] { return a.ticks >= 42; }, 1000));
  EXPECT_EQ(a.ticks, 42u);
}

TEST(Scheduler, RunUntilTimesOut) {
  Scheduler s(200e6);
  Counter a;
  s.add(a, "a");
  EXPECT_FALSE(s.run_until([&] { return false; }, 50));
  EXPECT_EQ(s.now(), 50u);
}

TEST(Scheduler, BatchedMatchesLegacyCycleForCycle) {
  // Identical component populations in both modes must leave identical
  // state: same tick sequence, same tick counts, same clock.
  std::vector<int> every_tick_log, skipping_log;
  Scheduler every_tick(200e6), skipping(200e6);
  every_tick.set_idle_skip(false);
  OrderLogger e0(every_tick_log, 0), e1(every_tick_log, 1), e2(every_tick_log, 2);
  OrderLogger s0(skipping_log, 0), s1(skipping_log, 1), s2(skipping_log, 2);
  every_tick.add(e0, "a");
  every_tick.add(e1, "b");
  every_tick.add(e2, "c");
  skipping.add(s0, "a");
  skipping.add(s1, "b");
  skipping.add(s2, "c");
  every_tick.run_cycles(37);
  skipping.run_cycles(37);
  EXPECT_EQ(every_tick.now(), skipping.now());
  EXPECT_EQ(every_tick_log, skipping_log);
}

TEST(Scheduler, StagesOverrideRegistrationOrderInBothPaths) {
  // A medium-stage component registered last still ticks first; within a
  // stage, registration order is preserved.
  for (const bool idle_skip : {false, true}) {
    std::vector<int> log;
    Scheduler s(200e6);
    s.set_idle_skip(idle_skip);
    OrderLogger dev1(log, 1), dev2(log, 2), probe(log, 3), medium(log, 0);
    s.add(dev1, "dev1");
    s.add(probe, "probe", Scheduler::kStageObserver);
    s.add(dev2, "dev2");
    s.add(medium, "medium", Scheduler::kStageMedium);
    s.run_cycles(2);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
    EXPECT_EQ(s.component_stage(1), Scheduler::kStageObserver);
    EXPECT_EQ(s.component_stage(3), Scheduler::kStageMedium);
    EXPECT_EQ(s.component_name(3), "medium");
  }
}

TEST(Scheduler, BatchedAdvancesNowEveryCycleAsSeenFromTicks) {
  // Components that sample now() mid-tick (latency bookkeeping does) must
  // observe the same clock in both modes.
  class NowSampler : public Clockable {
   public:
    explicit NowSampler(Scheduler& s) : s_(s) {}
    void tick() override { seen.push_back(s_.now()); }
    std::vector<Cycle> seen;

   private:
    Scheduler& s_;
  };
  Scheduler every_tick(200e6), skipping(200e6);
  every_tick.set_idle_skip(false);
  NowSampler ne(every_tick), ns(skipping);
  every_tick.add(ne, "n");
  skipping.add(ns, "n");
  every_tick.run_cycles(5);
  skipping.run_cycles(5);
  EXPECT_EQ(ne.seen, ns.seen);
  EXPECT_EQ(ns.seen, (std::vector<Cycle>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, BatchedZeroCyclesIsANoop) {
  Scheduler s(200e6);
  Counter a;
  s.add(a, "a");
  s.run_cycles(0);
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(a.ticks, 0u);
}

TEST(MultiScheduler, LockstepMatchesIndividualRuns) {
  Scheduler s1(200e6), s2(200e6);
  Counter a, b;
  s1.add(a, "a");
  s2.add(b, "b");
  MultiScheduler multi;
  multi.add(s1);
  multi.add(s2);
  const auto res = multi.run(10'000, /*stride=*/64);
  EXPECT_EQ(res.cycles, 10'000u);
  EXPECT_EQ(a.ticks, 10'000u);
  EXPECT_EQ(b.ticks, 10'000u);
  EXPECT_EQ(s1.now(), s2.now());
  // Unpredicated lanes never "finish" but don't block all_finished.
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(res.lanes_finished, 0u);
}

TEST(MultiScheduler, EarlyExitStopsALaneAtStrideGranularity) {
  Scheduler s1(200e6), s2(200e6);
  Counter a, b;
  s1.add(a, "a");
  s2.add(b, "b");
  MultiScheduler multi;
  multi.add(s1, [&] { return a.ticks >= 100; });  // Fires inside stride 1.
  multi.add(s2, [&] { return b.ticks >= 5000; });
  const auto res = multi.run(100'000, /*stride=*/256);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(res.lanes_finished, 2u);
  // Lane 1 stopped at its first stride boundary after the predicate fired.
  EXPECT_EQ(a.ticks, 256u);
  EXPECT_TRUE(multi.lane_finished(0));
  EXPECT_EQ(multi.lane_cycles(0), 256u);
  // Lane 2 ran on without lane 1: 5000 rounded up to the stride boundary.
  EXPECT_EQ(b.ticks, 5120u);
  EXPECT_EQ(res.cycles, 5120u);
}

TEST(MultiScheduler, BudgetExhaustionReportsUnfinishedLanes) {
  Scheduler s1(200e6);
  Counter a;
  s1.add(a, "a");
  MultiScheduler multi;
  multi.add(s1, [&] { return false; });
  const auto res = multi.run(1000, /*stride=*/300);
  EXPECT_FALSE(res.all_finished);
  EXPECT_EQ(res.lanes_finished, 0u);
  EXPECT_EQ(res.cycles, 1000u);  // Final partial stride honours the budget.
  EXPECT_EQ(a.ticks, 1000u);
}

TEST(MultiScheduler, AlreadyDrainedLaneNeverTicks) {
  Scheduler s1(200e6);
  Counter a;
  s1.add(a, "a");
  MultiScheduler multi;
  multi.add(s1, [] { return true; });
  const auto res = multi.run(1000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(a.ticks, 0u);
  EXPECT_EQ(res.cycles, 0u);
}

TEST(Stats, DigestIsOrderSensitiveAndStable) {
  Digest d1, d2, d3;
  d1.mix(1).mix(2);
  d2.mix(1).mix(2);
  d3.mix(2).mix(1);
  EXPECT_EQ(d1.value(), d2.value());
  EXPECT_NE(d1.value(), d3.value());
  EXPECT_NE(Digest{}.value(), d1.value());
}

TEST(TimeBase, CycleConversionsAt200MHz) {
  TimeBase tb(200e6);
  EXPECT_EQ(tb.us_to_cycles(10.0), 2000u);       // SIFS = 10 us.
  EXPECT_DOUBLE_EQ(tb.cycles_to_us(2000), 10.0);
  EXPECT_EQ(tb.ns_to_cycles(5.0), 1u);           // One cycle = 5 ns.
}

TEST(DerivedClock, FractionalDividerLongRunAccuracy) {
  // 11 Mbps byte clock from a 200 MHz master: 1.375 M edges/s.
  TimeBase tb(200e6);
  DerivedClock byte_clk(200e6, 11e6 / 8.0);
  u64 edges = 0;
  const u64 cycles = 2'000'000;  // 10 ms.
  for (u64 i = 0; i < cycles; ++i) edges += byte_clk.advance();
  // 10 ms * 1.375 MHz = 13750 edges.
  EXPECT_NEAR(static_cast<double>(edges), 13750.0, 1.0);
}

TEST(Trace, ActiveCyclesAndValueAt) {
  TraceChannel ch("x");
  ch.record(0, 0);
  ch.record(10, 3);
  ch.record(20, 0);
  ch.record(30, 1);
  EXPECT_EQ(ch.active_cycles(0, 40), 10u + 10u);
  EXPECT_EQ(ch.value_at(5).value(), 0);
  EXPECT_EQ(ch.value_at(15).value(), 3);
  EXPECT_EQ(ch.value_at(25).value(), 0);
  EXPECT_EQ(ch.value_at(35).value(), 1);
}

TEST(Trace, RecordCollapsesDuplicates) {
  TraceChannel ch("x");
  ch.record(0, 5);
  ch.record(1, 5);
  ch.record(2, 5);
  EXPECT_EQ(ch.events().size(), 1u);
}

TEST(Trace, AsciiWaveformRenders) {
  TraceRecorder rec;
  rec.channel("sig").record(0, 0);
  rec.channel("sig").record(50, 1);
  rec.channel("sig").record(75, 0);
  const std::string wf = rec.ascii_waveform({"sig"}, 0, 100, 20);
  EXPECT_NE(wf.find("sig"), std::string::npos);
  EXPECT_NE(wf.find('1'), std::string::npos);
  EXPECT_NE(wf.find('.'), std::string::npos);
}

TEST(Stats, StateOccupancyTotals) {
  StateOccupancy occ;
  for (int i = 0; i < 10; ++i) occ.sample(0);
  for (int i = 0; i < 5; ++i) occ.sample(2);
  EXPECT_EQ(occ.cycles_in(0), 10u);
  EXPECT_EQ(occ.cycles_in(2), 5u);
  EXPECT_EQ(occ.cycles_in(7), 0u);
  EXPECT_EQ(occ.total(), 15u);
}

TEST(Stats, BulkSamplesMatchLoopedSamples) {
  StateOccupancy oa, ob;
  for (int i = 0; i < 12; ++i) oa.sample(3);
  ob.sample_n(3, 12);
  EXPECT_EQ(oa.cycles_in(3), ob.cycles_in(3));
}

// ---- Quiescence-aware batching -------------------------------------------

/// Periodic worker honouring the full quiescence contract: does real work
/// every `period` cycles, declares the gaps skippable, and keeps an internal
/// clock that must stay cycle-exact through skips.
class PeriodicWorker : public Clockable {
 public:
  explicit PeriodicWorker(Cycle period) : period_(period), next_due_(period) {}

  void tick() override {
    const Cycle t = clock_++;
    if (t >= next_due_) {
      work_log.push_back(t);
      next_due_ = t + period_;
    }
  }
  Cycle quiescent_for() const override {
    return next_due_ > clock_ ? next_due_ - clock_ : 0;
  }
  void skip_idle(Cycle n) override {
    clock_ += n;
    skipped += n;
  }

  Cycle clock() const noexcept { return clock_; }
  std::vector<Cycle> work_log;
  Cycle skipped = 0;

 private:
  Cycle period_;
  Cycle next_due_;
  Cycle clock_ = 0;
};

/// Mailbox consumer: sleeps indefinitely while empty; producers wake it.
class MailboxConsumer : public Clockable {
 public:
  void tick() override {
    const Cycle t = clock_++;
    if (pending_ > 0) {
      --pending_;
      rx_log.push_back(t);
    }
  }
  Cycle quiescent_for() const override { return pending_ > 0 ? 0 : kIdleForever; }
  void skip_idle(Cycle n) override { clock_ += n; }
  void push() {
    wake_self();
    ++pending_;
  }

  Cycle clock() const noexcept { return clock_; }
  std::vector<Cycle> rx_log;

 private:
  u32 pending_ = 0;
  Cycle clock_ = 0;
};

/// Producer ticked every cycle that pushes into a consumer at given cycles.
class ScriptedProducer : public Clockable {
 public:
  ScriptedProducer(MailboxConsumer& c, std::vector<Cycle> at)
      : consumer_(c), at_(std::move(at)) {}
  void tick() override {
    for (Cycle a : at_) {
      if (a == now_) consumer_.push();
    }
    ++now_;
  }

 private:
  MailboxConsumer& consumer_;
  std::vector<Cycle> at_;
  Cycle now_ = 0;
};

TEST(Quiescence, PeriodicWorkerSkipsButMatchesLegacyExactly) {
  Scheduler every_tick(200e6), skipping(200e6);
  every_tick.set_idle_skip(false);
  PeriodicWorker we(137), ws(137);
  every_tick.add(we, "w");
  skipping.add(ws, "w");
  every_tick.run_cycles(10'000);
  skipping.run_cycles(10'000);
  EXPECT_EQ(we.work_log, ws.work_log);
  EXPECT_EQ(we.clock(), ws.clock());
  EXPECT_EQ(skipping.now(), every_tick.now());
  EXPECT_EQ(we.skipped, 0u);                  // The reference never slept...
  EXPECT_GT(ws.skipped, 0u);                  // ...the skipping run did...
  EXPECT_GT(skipping.ticks_skipped(), 0u);    // ...through the wake-wheel...
  EXPECT_GT(skipping.cycles_fast_forwarded(), 0u);  // ...across global gaps.
  EXPECT_LT(skipping.ticks_executed(), 10'000u);
}

TEST(Quiescence, WakeLandsOnTheLegacyCycleEitherSideOfTheProducer) {
  // The consumer must observe a push in the same cycle as in every-tick
  // mode, whether its tick slot comes before or after the producer's.
  for (const bool consumer_first : {true, false}) {
    Scheduler every_tick(200e6), skipping(200e6);
    every_tick.set_idle_skip(false);
    MailboxConsumer ce, cs;
    ScriptedProducer pe(ce, {100, 101, 500}), ps(cs, {100, 101, 500});
    if (consumer_first) {
      every_tick.add(ce, "c");
      every_tick.add(pe, "p");
      skipping.add(cs, "c");
      skipping.add(ps, "p");
    } else {
      every_tick.add(pe, "p");
      every_tick.add(ce, "c");
      skipping.add(ps, "p");
      skipping.add(cs, "c");
    }
    every_tick.run_cycles(1'000);
    skipping.run_cycles(1'000);
    EXPECT_EQ(ce.rx_log, cs.rx_log) << "consumer_first=" << consumer_first;
    EXPECT_EQ(ce.clock(), cs.clock()) << "consumer_first=" << consumer_first;
  }
}

TEST(Quiescence, SplitRunsMatchOneRun) {
  // run_cycles(a); run_cycles(b) with idle-skip must equal one every-tick
  // (a+b) run — the settle at the boundary, with the wake state kept, is
  // what Testbench's repeated runs rely on.
  Scheduler one(200e6), split(200e6);
  one.set_idle_skip(false);
  PeriodicWorker w1(97), w2(97);
  one.add(w1, "w");
  split.add(w2, "w");
  one.run_cycles(4'000);
  split.run_cycles(1'000);
  split.run_cycles(512);
  split.run_cycles(2'488);
  EXPECT_EQ(w1.work_log, w2.work_log);
  EXPECT_EQ(w1.clock(), w2.clock());
  EXPECT_GT(w2.skipped, 0u);
}

TEST(Quiescence, IdleSkipDisabledTicksEverything) {
  Scheduler s(200e6);
  s.set_idle_skip(false);
  PeriodicWorker w(50);
  s.add(w, "w");
  s.run_cycles(1'000);
  EXPECT_EQ(w.skipped, 0u);
  EXPECT_EQ(w.clock(), 1'000u);
  EXPECT_EQ(s.ticks_executed(), 1'000u);
}

TEST(Quiescence, NextWakeReportsTheEarliestRealTick) {
  Scheduler s(200e6);
  PeriodicWorker w(1'000);
  s.add(w, "w");
  s.run_cycles(100);  // Well inside the first idle stretch.
  EXPECT_EQ(s.next_wake(), 1'000u);
  Scheduler busy(200e6);
  Counter c;  // Default contract: never quiescent.
  busy.add(c, "c");
  busy.run_cycles(100);
  EXPECT_EQ(busy.next_wake(), busy.now());
}

TEST(Quiescence, NextWakeRecomputedWhenIdleSkipTogglesMidRun) {
  // The hint published at the end of a run was computed under the
  // skip policy active then; flipping the policy must invalidate it at once.
  // A MultiScheduler consulting a stale far-future hint right after
  // set_idle_skip(false) would skip a lane that now needs every cycle ticked.
  Scheduler s(200e6);
  PeriodicWorker w(1'000);
  s.add(w, "w");
  s.run_cycles(100);  // Idle until cycle 1'000 under skipping.
  ASSERT_EQ(s.next_wake(), 1'000u);
  s.set_idle_skip(false);
  EXPECT_EQ(s.next_wake(), s.now());  // Collapsed, not stale.
  s.run_cycles(100);
  EXPECT_EQ(s.next_wake(), s.now());  // Non-skipping runs pin it to now.
  s.set_idle_skip(true);
  EXPECT_EQ(s.next_wake(), s.now());  // Conservative until the next run...
  s.run_cycles(100);
  EXPECT_EQ(s.next_wake(), 1'000u);  // ...which re-establishes the bound.
  EXPECT_EQ(w.clock(), 300u);  // And the worker stayed cycle-exact throughout.
}

TEST(Quiescence, MultiSchedulerSkipsQuiescentLanesBitIdentically) {
  // Lane 0 works every 100 cycles, lane 1 every 40'000 (it skips whole
  // strides); both must land exactly where dispatch-every-round lands.
  for (const unsigned workers : {1u, 4u}) {
    Scheduler s0(200e6), s1(200e6);
    PeriodicWorker w0(100), w1(40'000);
    s0.add(w0, "w0");
    s1.add(w1, "w1");
    MultiScheduler multi;
    multi.add(s0);
    multi.add(s1);
    const auto res = multi.run(100'000, 1'024, workers);
    EXPECT_EQ(res.cycles, 100'000u);
    EXPECT_EQ(s0.now(), 100'000u);
    EXPECT_EQ(s1.now(), 100'000u);  // Flushed to the lockstep clock.
    EXPECT_EQ(multi.lane_cycles(0), 100'000u);
    EXPECT_EQ(multi.lane_cycles(1), 100'000u);
    Scheduler ref(200e6);
    ref.set_idle_skip(false);
    PeriodicWorker wr(40'000);
    ref.add(wr, "w");
    ref.run_cycles(100'000);
    EXPECT_EQ(w1.work_log, wr.work_log) << "workers=" << workers;
  }
}

TEST(Scheduler, RunUntilStopsOnTheSameCycleWithAndWithoutIdleSkip) {
  // The predicate flips inside the worker's tick at cycle 1'000, right after
  // a fast-forward across the idle stretch before it: run_until must stop
  // on the cycle every-tick mode stops on, with the sleeper settled.
  for (const bool idle_skip : {false, true}) {
    Scheduler s(200e6);
    s.set_idle_skip(idle_skip);
    PeriodicWorker w(1'000), idle(50'000);
    s.add(w, "w");
    s.add(idle, "idle");
    EXPECT_TRUE(s.run_until([&] { return !w.work_log.empty(); }, 10'000));
    EXPECT_EQ(s.now(), 1'001u) << "idle_skip=" << idle_skip;
    EXPECT_EQ(w.work_log, std::vector<Cycle>{1'000});
    EXPECT_EQ(idle.clock(), s.now()) << "sleeper settled on return";
    EXPECT_EQ(s.cycles_fast_forwarded() > 0, idle_skip);
    // A predicate already true at entry runs nothing.
    EXPECT_TRUE(s.run_until([] { return true; }, 10'000));
    EXPECT_EQ(s.now(), 1'001u);
  }

  // The Testbench drivers end on the same cycle in both modes.
  struct Outcome {
    Cycle end_cycle;
    double latency_us;
    Cycle after_tx;
    std::optional<Bytes> rx;
    Cycle after_rx;
  };
  const auto drive = [](bool idle_skip) {
    Testbench tb;
    tb.scheduler().set_idle_skip(idle_skip);
    const auto tx = tb.send_and_wait(Mode::A, Bytes(300, 0x5A));
    EXPECT_TRUE(tx.success);
    Outcome o{tx.end_cycle, tx.latency_us, tb.scheduler().now(), {}, 0};
    o.rx = tb.inject_and_wait(Mode::B, Bytes(200, 0xA5), 1);
    o.after_rx = tb.scheduler().now();
    return o;
  };
  const Outcome every_tick = drive(false);
  const Outcome skipping = drive(true);
  EXPECT_EQ(every_tick.end_cycle, skipping.end_cycle);
  EXPECT_EQ(every_tick.latency_us, skipping.latency_us);
  EXPECT_EQ(every_tick.after_tx, skipping.after_tx);
  ASSERT_TRUE(every_tick.rx.has_value());
  EXPECT_EQ(every_tick.rx, skipping.rx);
  EXPECT_EQ(every_tick.after_rx, skipping.after_rx);
}

TEST(MultiScheduler, WorkerThreadsMatchSerialExactly) {
  // Lanes are independent clock domains, so a 4-worker run must leave every
  // lane in the same state as the serial run. Two lane mixes: always-busy
  // lanes retiring at different rounds, and mostly-idle lanes, whose rounds
  // mostly have fewer than two due lanes and run inline on the calling
  // thread instead of on the pool.
  struct Side {
    MultiScheduler multi;
    std::vector<std::unique_ptr<Scheduler>> scheds;
    std::vector<std::unique_ptr<Counter>> counters;
    std::vector<std::unique_ptr<PeriodicWorker>> workers;
  };
  for (const bool idle_mix : {false, true}) {
    SCOPED_TRACE(idle_mix ? "mostly-idle lanes" : "busy lanes");
    const std::size_t lanes = idle_mix ? 4 : 6;
    const Cycle budget = idle_mix ? 50'000 : 100'000;
    Side serial, parallel;
    for (Side* side : {&serial, &parallel}) {
      for (std::size_t i = 0; i < lanes; ++i) {
        Scheduler& s = *side->scheds.emplace_back(std::make_unique<Scheduler>(200e6));
        if (idle_mix) {
          const Cycle period = i == 0 ? 97 : 3'000 + 1'100 * i;
          s.add(*side->workers.emplace_back(std::make_unique<PeriodicWorker>(period)), "w");
          side->multi.add(s);
        } else {
          Counter* c = side->counters.emplace_back(std::make_unique<Counter>()).get();
          s.add(*c, "c");
          const Cycle target = 1000 + 700 * i;
          side->multi.add(s, [c, target] { return c->ticks >= target; });
        }
      }
    }
    const auto rs = serial.multi.run(budget, 256, /*workers=*/1);
    const auto rp = parallel.multi.run(budget, 256, /*workers=*/4);
    EXPECT_EQ(rs.cycles, rp.cycles);
    EXPECT_EQ(rs.lanes_finished, rp.lanes_finished);
    for (std::size_t i = 0; i < lanes; ++i) {
      EXPECT_EQ(serial.multi.lane_cycles(i), parallel.multi.lane_cycles(i)) << "lane " << i;
      EXPECT_EQ(serial.multi.lane_rounds_skipped(i), parallel.multi.lane_rounds_skipped(i))
          << "lane " << i;
      if (idle_mix) {
        EXPECT_EQ(serial.workers[i]->work_log, parallel.workers[i]->work_log) << "lane " << i;
        EXPECT_EQ(serial.workers[i]->clock(), parallel.workers[i]->clock()) << "lane " << i;
        EXPECT_EQ(parallel.workers[i]->clock(), budget) << "lane " << i;
      } else {
        EXPECT_EQ(serial.counters[i]->ticks, parallel.counters[i]->ticks) << "lane " << i;
      }
    }
    if (idle_mix) {
      EXPECT_GT(parallel.multi.lane_rounds_skipped(1), 0u);
    }
  }
}

/// Sleeps until woken and counts how often its bound is asked for.
class CountingSleeper : public Clockable {
 public:
  void tick() override { ++clock; }
  Cycle quiescent_for() const override {
    ++queries;
    return kIdleForever;
  }
  void skip_idle(Cycle n) override { clock += n; }
  mutable u64 queries = 0;
  Cycle clock = 0;
};

TEST(Quiescence, RunBoundaryDoesNotQuerySleepers) {
  // The wake state survives run boundaries: a sleeper's bound is asked for
  // once, when the state is built, not at every run entry and exit.
  Scheduler s(200e6);
  CountingSleeper z;
  s.add(z, "z");
  for (int i = 0; i < 1'000; ++i) s.run_cycles(1);
  EXPECT_LE(z.queries, 2u);
  EXPECT_EQ(z.clock, 1'000u);  // Settled at every return all the same.
}

/// Consumer of time-stamped input: handles it in the tick at cycle `at`,
/// sleeps otherwise. Its input may arrive early (a coupler's round edge).
class StampedConsumer : public Clockable {
 public:
  void tick() override {
    if (clock_ == due_) rx_log.push_back(clock_);
    ++clock_;
  }
  Cycle quiescent_for() const override {
    if (due_ == kIdleForever || due_ < clock_) return kIdleForever;
    return due_ - clock_;
  }
  void skip_idle(Cycle n) override { clock_ += n; }
  void deliver_at(Cycle at) {
    wake_self();
    due_ = at;
  }
  Cycle clock() const noexcept { return clock_; }
  std::vector<Cycle> rx_log;

 private:
  Cycle due_ = kIdleForever;
  Cycle clock_ = 0;
};

TEST(Quiescence, WakeBetweenRunsLandsOnTheEveryTickCycle) {
  // Plain scheduler: input pushed between two runs is seen by the first
  // tick of the next run, with the sleeper's account caught up.
  struct Plain {
    std::vector<Cycle> rx;
    Cycle clock;
  };
  const auto plain = [](bool idle_skip) {
    Scheduler s(200e6);
    s.set_idle_skip(idle_skip);
    MailboxConsumer c;
    PeriodicWorker w(300);
    s.add(w, "w");
    s.add(c, "c");
    s.run_cycles(100);
    c.push();
    EXPECT_EQ(c.clock(), s.now());
    s.run_cycles(1'000);
    return Plain{c.rx_log, c.clock()};
  };
  const Plain pe = plain(false), ps = plain(true);
  EXPECT_EQ(pe.rx, std::vector<Cycle>{100});
  EXPECT_EQ(ps.rx, pe.rx);
  EXPECT_EQ(ps.clock, pe.clock);

  // MultiScheduler: a round hook delivers at the round edge, as
  // ChannelCoupler::exchange does, into a lane whose rounds were skipped.
  // Inside the edge hook and after run() every sleeper is settled.
  struct Multi {
    std::vector<Cycle> rx;
    Cycle consumer_clock, worker_clock;
    std::vector<Cycle> work;
  };
  const auto multi = [](bool idle_skip, unsigned workers) {
    Scheduler s0(200e6), s1(200e6);
    s0.set_idle_skip(idle_skip);
    s1.set_idle_skip(idle_skip);
    StampedConsumer c;
    PeriodicWorker w(5'000);
    s0.add(c, "c");
    s1.add(w, "w");
    MultiScheduler ms;
    ms.add(s0);
    ms.add(s1);
    Cycle edge = 0;
    ms.set_round_hook(
        [&](u64 rounds) {
          edge += 256 * rounds;
          if (edge == 768) c.deliver_at(edge + 10);
        },
        [&] { return edge < 768 ? Cycle{768} : Clockable::kIdleForever; });
    ms.set_edge_hook(1'024, [&](Cycle at) {
      EXPECT_EQ(s0.now(), at);
      EXPECT_EQ(c.clock(), at) << "settled at the edge hook";
      EXPECT_EQ(w.clock(), at) << "settled at the edge hook";
    });
    ms.run(4'000, 256, workers);
    EXPECT_EQ(c.clock(), s0.now()) << "settled at run() return";
    EXPECT_EQ(w.clock(), s1.now()) << "settled at run() return";
    return Multi{c.rx_log, c.clock(), w.clock(), w.work_log};
  };
  const Multi me = multi(false, 1);
  EXPECT_EQ(me.rx, std::vector<Cycle>{778});
  for (const unsigned workers : {1u, 2u}) {
    const Multi mk = multi(true, workers);
    EXPECT_EQ(mk.rx, me.rx) << "workers=" << workers;
    EXPECT_EQ(mk.consumer_clock, me.consumer_clock) << "workers=" << workers;
    EXPECT_EQ(mk.worker_clock, me.worker_clock) << "workers=" << workers;
    EXPECT_EQ(mk.work, me.work) << "workers=" << workers;
  }
}

TEST(MultiScheduler, AllIdleHopsMatchRoundByRound) {
  // Lanes asleep for many strides at a time: with no lane due, run() hops
  // to the round holding the earliest wake instead of stepping each round.
  // The reference declares every edge its own (NextEdge at the current edge
  // disables hopping). Lane clocks and work, the scripted delivery the hook
  // makes at its own edge, retirement, checkpoint edges and the lane-stall
  // profile must all be equal, with one and two workers.
  struct Out {
    std::vector<Cycle> w0, w1, rx, edge_hooks;
    Cycle edge, cycles, c0, c1, c2;
    u64 rounds, hook_calls, skipped, stall;
    bool finished;
  };
  const auto run = [](bool hop, unsigned workers) {
    Scheduler s0(200e6), s1(200e6), s2(200e6);
    PeriodicWorker w0(37'000), w1(91'000);
    StampedConsumer c;
    s0.add(w0, "w0");
    s1.add(w1, "w1");
    s2.add(c, "c");
    MultiScheduler ms;
    ms.add(s0);
    ms.add(s1, [&] { return w1.work_log.size() >= 3; });  // Retires mid-run.
    ms.add(s2);
    constexpr Cycle kDeliverEdge = 150 * 1'024;
    Out o{};
    ms.set_round_hook(
        [&](u64 rounds) {
          ++o.hook_calls;
          o.edge += 1'024 * rounds;
          if (o.edge == kDeliverEdge) c.deliver_at(o.edge + 10);
        },
        [&] {
          if (!hop) return o.edge;
          return o.edge < kDeliverEdge ? kDeliverEdge : Clockable::kIdleForever;
        });
    ms.set_edge_hook(100'000, [&](Cycle at) {
      o.edge_hooks.push_back(at);
      EXPECT_EQ(w0.clock(), at) << "settled at the edge hook";
      EXPECT_EQ(c.clock(), at) << "settled at the edge hook";
    });
    const auto res = ms.run(1'000'000, 1'024, workers);
    o.w0 = w0.work_log;
    o.w1 = w1.work_log;
    o.rx = c.rx_log;
    o.cycles = res.cycles;
    o.rounds = res.rounds;
    o.finished = ms.lane_finished(1);
    o.c0 = w0.clock();
    o.c1 = w1.clock();
    o.c2 = c.clock();
    for (std::size_t i = 0; i < ms.lane_count(); ++i) {
      o.skipped += ms.lane_rounds_skipped(i);
      o.stall += ms.lane_stall_cycles(i);
    }
    return o;
  };
  const Out ref = run(false, 1);
  EXPECT_EQ(ref.rx, std::vector<Cycle>{150 * 1'024 + 10});
  EXPECT_EQ(ref.w1.size(), 3u);
  EXPECT_TRUE(ref.finished);
  EXPECT_EQ(ref.hook_calls, ref.rounds);
  for (const unsigned workers : {1u, 2u}) {
    const Out o = run(true, workers);
    EXPECT_LT(o.hook_calls, ref.rounds / 4) << "idle rounds were hopped";
    EXPECT_EQ(o.w0, ref.w0) << "workers=" << workers;
    EXPECT_EQ(o.w1, ref.w1) << "workers=" << workers;
    EXPECT_EQ(o.rx, ref.rx) << "workers=" << workers;
    EXPECT_EQ(o.edge_hooks, ref.edge_hooks) << "workers=" << workers;
    EXPECT_EQ(o.edge, ref.edge) << "workers=" << workers;
    EXPECT_EQ(o.cycles, ref.cycles) << "workers=" << workers;
    EXPECT_EQ(o.rounds, ref.rounds) << "workers=" << workers;
    EXPECT_EQ(o.finished, ref.finished) << "workers=" << workers;
    EXPECT_EQ(o.c0, ref.c0) << "workers=" << workers;
    EXPECT_EQ(o.c1, ref.c1) << "workers=" << workers;
    EXPECT_EQ(o.c2, ref.c2) << "workers=" << workers;
    EXPECT_EQ(o.skipped, ref.skipped) << "workers=" << workers;
    EXPECT_EQ(o.stall, ref.stall) << "workers=" << workers;
  }
}

TEST(Scheduler, AddDuringARunThrows) {
  // The component array is frozen at run entry: a registration from inside
  // a tick must fail loudly, in both modes.
  class Registrar : public Clockable {
   public:
    Registrar(Scheduler& s, Clockable& late) : s_(s), late_(late) {}
    void tick() override { s_.add(late_, "late"); }

   private:
    Scheduler& s_;
    Clockable& late_;
  };
  for (const bool idle_skip : {false, true}) {
    Scheduler s(200e6);
    s.set_idle_skip(idle_skip);
    Counter late;
    Registrar r(s, late);
    s.add(r, "registrar");
    EXPECT_THROW(s.run_cycles(10), std::logic_error);
  }
  // Between runs registration stays legal.
  Scheduler t(200e6);
  Counter b, c;
  t.add(b, "b");
  t.run_cycles(5);
  t.add(c, "c");
  t.run_cycles(5);
  EXPECT_EQ(b.ticks, 10u);
  EXPECT_EQ(c.ticks, 5u);
}

}  // namespace
}  // namespace drmp::sim
