#include "sim/multi_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>

namespace drmp::sim {

std::size_t MultiScheduler::add(Scheduler& sched, DonePredicate done) {
  lanes_.push_back(Lane{&sched, std::move(done)});
  return lanes_.size() - 1;
}

namespace {

/// Per-round shared state for the persistent worker pool. Workers park on
/// `start` between rounds; the calling thread publishes chunk/active before
/// releasing them and evaluates predicates alone after `end`.
struct RoundState {
  std::atomic<std::size_t> next{0};
  Cycle chunk = 0;
  bool stop = false;
  const std::vector<std::size_t>* active = nullptr;
};

}  // namespace

MultiScheduler::RunResult MultiScheduler::run(Cycle max_cycles, Cycle stride,
                                              unsigned workers) {
  if (stride == 0) stride = 1;
  RunResult res;

  // A lane can be born finished (empty workload) — honour that before the
  // first stride so it never ticks at all.
  std::vector<std::size_t> active;
  active.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (!lane.finished && lane.done && lane.done()) lane.finished = true;
    if (!lane.finished) active.push_back(i);
  }

  const unsigned nthreads = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(std::max(1u, workers), active.size())));

  RoundState round;
  round.active = &active;
  // Cycles a quiescent lane owes because its rounds were skipped; replayed
  // in one call of the scheduler's loop when the lane's next_wake falls due
  // (or at exit).
  std::vector<Cycle> deferred(lanes_.size(), 0);
  // A lane is due when it may execute a real tick before the round target.
  // next_wake() is exact between rounds: a lane is mutated outside its own
  // run only through wake_self(), which collapses the hint to now().
  const auto due = [&](std::size_t idx) {
    const Scheduler& s = *lanes_[idx].sched;
    return s.next_wake() < s.now() + round.chunk + deferred[idx];
  };
  // Lanes run through the scheduler's private loop, which keeps sleepers
  // unsettled: a dispatch costs O(woken), not O(components).
  const auto advance_lane = [&](std::size_t idx, Cycle n) {
    Scheduler& s = *lanes_[idx].sched;
    s.advance(s.now() + n, nullptr);
    lanes_[idx].cycles_run += n;
  };
  const auto run_lane = [&](std::size_t idx) {
    Lane& lane = lanes_[idx];
    if (!due(idx)) {
      deferred[idx] += round.chunk;
      // Lane-stall profile: each lane only ever writes its own slot, so
      // worker threads never contend here.
      ++lane.rounds_skipped;
      lane.stall_cycles += round.chunk;
      return;
    }
    advance_lane(idx, round.chunk + deferred[idx]);
    deferred[idx] = 0;
  };
  // Puts a lane on the lockstep clock with its sleepers settled, wherever
  // its state is observed: retirement, checkpoint edges, run exit.
  const auto flush_lane = [&](std::size_t idx) {
    if (deferred[idx] != 0) {
      advance_lane(idx, deferred[idx]);
      deferred[idx] = 0;
    }
    lanes_[idx].sched->settle();
  };
  const auto drain_queue = [&] {
    for (;;) {
      const std::size_t k = round.next.fetch_add(1, std::memory_order_relaxed);
      if (k >= round.active->size()) break;
      run_lane((*round.active)[k]);
    }
  };

  // Persistent pool: workers are spawned once and parked on a barrier
  // between rounds, so per-round cost is a wakeup, not a thread launch.
  std::barrier<> start(nthreads), end(nthreads);
  std::vector<std::thread> pool;
  pool.reserve(nthreads > 0 ? nthreads - 1 : 0);
  for (unsigned t = 1; t < nthreads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        start.arrive_and_wait();
        if (round.stop) break;
        drain_queue();
        end.arrive_and_wait();
      }
    });
  }

  Cycle edge_next = edge_every_;
  while (res.cycles < max_cycles && !active.empty()) {
    round.chunk = std::min<Cycle>(stride, max_cycles - res.cycles);
    round.next.store(0, std::memory_order_relaxed);
    // A round with fewer than two due lanes is run inline: releasing the
    // pool would cost two barrier crossings for at most one lane's work.
    std::size_t due_lanes = 0;
    if (!pool.empty()) {
      for (std::size_t k = 0; k < active.size() && due_lanes < 2; ++k) {
        due_lanes += static_cast<std::size_t>(due(active[k]));
      }
    }
    if (due_lanes < 2) {
      for (std::size_t idx : active) run_lane(idx);
    } else {
      start.arrive_and_wait();
      drain_queue();
      end.arrive_and_wait();
    }
    res.cycles += round.chunk;
    ++res.rounds;
    // Retire lanes whose predicate fired this stride (calling thread only —
    // workers are parked on the barrier here). A skipped lane's predicate
    // cannot have changed (its ticks were provably no-ops), but evaluating
    // it is pure, so the retire decision matches the dispatch-every-round
    // behaviour exactly. A lane can only finish in a round it actually ran
    // — the defensive flush keeps its clock aligned regardless.
    std::size_t kept = 0;
    for (std::size_t idx : active) {
      Lane& lane = lanes_[idx];
      if (lane.done && lane.done()) {
        flush_lane(idx);
        lane.finished = true;
      } else {
        active[kept++] = idx;
      }
    }
    active.resize(kept);
    // Round-edge exchange (workers still parked): couplers deliver the
    // events this round generated. Retired lanes' components may still be
    // mutated here — their counters must keep absorbing cross-lane effects
    // scheduled past the stop edge so collection-time statistics match a
    // coupled reference that stopped at the same edge.
    if (round_hook_) round_hook_();
    // Checkpoint edge: flush and settle deferred lanes so every lane clock
    // sits exactly on this round edge, then hand control to the hook. Gated
    // on the due multiple — not every round — so round skipping keeps its
    // effect between checkpoints.
    if (edge_hook_ && res.cycles >= edge_next) {
      for (std::size_t idx : active) flush_lane(idx);
      edge_hook_(res.cycles);
      edge_next = (res.cycles / edge_every_ + 1) * edge_every_;
    }
  }

  // Bring skipped-but-unfinished lanes up to the lockstep clock, exactly as
  // if they had been dispatched every round, and settle them for collection.
  for (std::size_t idx : active) flush_lane(idx);

  if (!pool.empty()) {
    round.stop = true;
    start.arrive_and_wait();
    for (std::thread& t : pool) t.join();
  }

  res.all_finished = true;
  for (const Lane& lane : lanes_) {
    if (lane.finished) ++res.lanes_finished;
    if (lane.done && !lane.finished) res.all_finished = false;
  }
  return res;
}

}  // namespace drmp::sim
