// Steady-state allocation test: the tick path of a saturated contended
// cell must perform ZERO heap allocations once the arenas are warm.
//
// Frame churn (TxBuffer staging, queued TxFrameEntry records, the medium's
// in-flight copies and delivery fan-out) recycles through common/arena.hpp's
// ByteArena free-lists and RingQueues, and the scheduler's timing-wheel
// buckets retain their capacity across reuse — so after a warm-up that
// covers the traffic mix and the wheel's slot space, a measured window of
// pure simulation must not touch the allocator at all. The probe is a
// counting global operator new: this test runs as its own binary (one per
// tests/*_test.cpp), so the override cannot leak into other suites. The
// window is sampled from *inside* one batched run by an observer-stage
// component, so first-run bookkeeping (partitioning the active set,
// basing the wake wheel) stays out of the measurement: the claim is about
// the per-cycle path, not about run_cycles() setup.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/cell.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/scheduler.hpp"

namespace {
std::atomic<drmp::u64> g_news{0};
}  // namespace

// The nothrow forms must be overridden too: libstdc++'s temporary buffers
// (std::stable_sort) allocate through operator new(n, nothrow), and under
// ASan a mix of intercepted-new allocation with our free()-backed delete
// trips alloc-dealloc-mismatch. GCC flags free() inside a replaced
// operator delete as a new/free mismatch; with every replaced new
// malloc-backed above, the pairing is exact.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace drmp {
namespace {

/// Snapshots the allocation counter at two cycles of the run it rides in.
/// Never quiescent, so it observes every cycle of the window boundary.
class AllocWindowProbe : public sim::Clockable {
 public:
  AllocWindowProbe(const sim::Scheduler& s, Cycle from, Cycle to)
      : sched_(s), from_(from), to_(to) {}
  void tick() override {
    const Cycle c = sched_.now();
    if (c == from_) start_ = g_news.load(std::memory_order_relaxed);
    if (c == to_) stop_ = g_news.load(std::memory_order_relaxed);
  }
  u64 allocations_in_window() const { return stop_ - start_; }

 private:
  const sim::Scheduler& sched_;
  Cycle from_, to_;
  u64 start_ = 0, stop_ = 0;
};

TEST(SteadyStateAllocation, SaturatedCellTicksAllocationFree) {
  // Eight stations with deep per-station backlogs: the cell stays saturated
  // far past the measured window (asserted below via drained()).
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::contended_wifi_cell(8, 1, /*msdus_per_station=*/40);
  net::Cell cell(spec.cells[0], spec.channel, spec.seed, /*cell_index=*/0,
                 /*first_station_id=*/1);
  sim::Scheduler& sched = cell.scheduler();

  // Warm-up before the window: several traffic intervals plus the timing
  // wheel's slot rotation at the levels this workload's sleep bounds land
  // in, so every bucket, ring and byte pool the steady state touches has
  // grown to its high-watermark.
  constexpr Cycle kWarmup = 6'000'000;
  constexpr Cycle kWindow = 10'000;
  AllocWindowProbe probe(sched, kWarmup, kWarmup + kWindow);
  sched.add(probe, "alloc-probe", sim::Scheduler::kStageObserver);

  sched.run_cycles(kWarmup + kWindow + 1);
  ASSERT_FALSE(cell.drained()) << "measured window was not saturated";
  EXPECT_EQ(probe.allocations_in_window(), 0u)
      << "tick path allocated " << probe.allocations_in_window()
      << " times in a warm " << kWindow << "-cycle window";
}

}  // namespace
}  // namespace drmp
