#include "sim/scheduler.hpp"

#include "sim/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace drmp::sim {

void Clockable::wake_self() noexcept {
  if (wake_sched_ != nullptr) wake_sched_->wake_component(wake_index_);
}

void Scheduler::add(Clockable& c, std::string name, int stage) {
  // The component array is frozen at run entry; a component registered from
  // inside a tick would silently miss the rest of the run.
  if (in_run_) {
    throw std::logic_error("Scheduler::add: cannot register '" + name +
                           "' while a run is in progress");
  }
  // The wake state is indexed by the frozen array, which the next run
  // rebuilds; settle what sleepers owe under the old indexing first.
  settle();
  wake_valid_ = false;
  entries_.push_back(Entry{&c, stage});
  names_.push_back(std::move(name));
  batch_dirty_ = true;
}

void Scheduler::set_idle_skip(bool enabled) {
  if (idle_skip_ != enabled) {
    settle();
    wake_valid_ = false;
    next_wake_ = now_;
  }
  idle_skip_ = enabled;
}

void Scheduler::freeze() {
  // A re-freeze rebuilds the per-stage counter vectors below; flush what
  // they hold so profile() never loses ticks across late registrations.
  for (std::size_t b = 0; b < stage_ids_.size(); ++b) {
    auto& [exec, skip] = stage_totals_[stage_ids_[b]];
    exec += stage_exec_[b];
    skip += stage_skip_[b];
  }
  // Stable sort keeps registration order within a stage, so an all-default
  // scheduler executes in exact registration order.
  std::vector<std::size_t> order(entries_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return entries_[a].stage < entries_[b].stage;
                   });
  batch_.clear();
  batch_.reserve(order.size());
  frozen_names_.clear();
  frozen_names_.reserve(order.size());
  stage_ids_.clear();
  stage_bucket_.clear();
  stage_bucket_.reserve(order.size());
  for (const std::size_t i : order) {
    batch_.push_back(entries_[i].component);
    frozen_names_.push_back(names_[i]);
    // `order` is stage-sorted, so unique stages arrive in ascending runs.
    if (stage_ids_.empty() || stage_ids_.back() != entries_[i].stage) {
      stage_ids_.push_back(entries_[i].stage);
    }
    stage_bucket_.push_back(static_cast<u32>(stage_ids_.size() - 1));
  }
  stage_exec_.assign(stage_ids_.size(), 0);
  stage_skip_.assign(stage_ids_.size(), 0);
  // Bind the wake route: wake_self() must reach this scheduler's active-set
  // bookkeeping. A component lives in exactly one scheduler in this code
  // base; re-freezing (or re-registering elsewhere) rebinds it.
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    batch_[i]->wake_sched_ = this;
    batch_[i]->wake_index_ = static_cast<u32>(i);
  }
  batch_dirty_ = false;
}

void Scheduler::partition() {
  in_cycle_ = false;
  cursor_ = kNoCursor;
  states_.assign(batch_.size(), CompState{});
  eager_.clear();
  wheel_.reset(now_);
  wheel_stale_ = 0;
  active_.reset(batch_.size());
  awake_lazy_ = 0;
  // Every component is fully caught up here, so bounds are relative to the
  // next cycle to execute (now_).
  for (u32 i = 0; i < batch_.size(); ++i) {
    CompState& st = states_[i];
    st.eager = batch_[i]->global_skip_only();
    if (st.eager) {
      active_.insert(i);  // Eager components stay in the tick loop.
      eager_.push_back(i);
      continue;
    }
    const Cycle q = batch_[i]->quiescent_for();
    if (q == 0) {
      active_.insert(i);
      ++awake_lazy_;
    } else {
      st.sleeping = true;
      st.slept_from = now_;
      if (q != Clockable::kIdleForever && q <= Clockable::kIdleForever - now_) {
        wheel_.push(now_ + q, i, st.gen);
        st.in_wheel = true;
        wheel_depth_max_ = std::max<u64>(wheel_depth_max_, wheel_.size());
      }
    }
  }
  wake_valid_ = true;
}

void Scheduler::settle() {
  if (!wake_valid_) return;
  // Sleepers stay asleep with their wheel entries live; only the cycles
  // they owe are accounted, so introspection between runs is
  // indistinguishable from every-tick mode.
  for (u32 i = 0; i < states_.size(); ++i) {
    CompState& st = states_[i];
    if (!st.sleeping || st.slept_from == now_) continue;
    account_skip(i, st.slept_from, now_ - st.slept_from);
    st.slept_from = now_;
  }
}

void Scheduler::publish_next_wake() {
  if (awake_lazy_ > 0) {
    next_wake_ = now_;
    return;
  }
  // Only eager components are awake: the lane's next real tick is the
  // earliest of the stored sleeper bounds and the eager components' own
  // (which are caught up, so asking them is within the contract).
  Cycle wake = wheel_.earliest([this](const TimingWheel::Entry& e) { return live(e); });
  for (const u32 i : eager_) {
    const Cycle q = batch_[i]->quiescent_for();
    if (q <= Clockable::kIdleForever - now_) wake = std::min(wake, now_ + q);
  }
  next_wake_ = std::max(wake, now_);
}

void Scheduler::account_skip(u32 idx, Cycle from, Cycle owed) {
  batch_[idx]->skip_idle(owed);
  ticks_skipped_ += owed;
  stage_skip_[stage_bucket_[idx]] += owed;
  if (observer_ != nullptr) observer_->on_skip_span(frozen_names_[idx], from, owed);
}

void Scheduler::wake_component(u32 idx) {
  // External input: the published lane hint no longer proves quiescence.
  next_wake_ = now_;
  if (!wake_valid_) return;  // The next run partitions from fresh bounds.
  CompState& st = states_[idx];
  if (!st.sleeping) return;
  st.sleeping = false;
  ++st.gen;  // Any wake-wheel entry for this sleep period is now stale.
  if (st.in_wheel) {
    st.in_wheel = false;
    ++wheel_stale_;  // Woken early: its wheel entry lingers until purged.
  }
  // Catch-up window: while mid-cycle, a target whose tick slot has not yet
  // passed this cycle owes [slept_from, now_) and then really ticks at now_
  // (every-tick mode would observe the just-delivered input this cycle); a
  // target whose slot already passed owes [slept_from, now_] and resumes at
  // now_+1 — exactly when every-tick mode would first see the input.
  // Between runs the target owes [slept_from, now_) and ticks at now_.
  Cycle owed = now_ - st.slept_from;
  if (in_cycle_ && idx <= cursor_) ++owed;
  if (owed > 0) account_skip(idx, st.slept_from, owed);
  active_.insert(idx);
  ++awake_lazy_;
}

void Scheduler::drain_wheel() {
  // Scheduled bounds that expire this cycle. Entries are drained in bucket
  // order, not time order — every drained entry is due at now_ (or stale),
  // and wake_component is order-independent within a cycle boundary.
  wheel_.advance(now_, [this](const TimingWheel::Entry& e) {
    if (live(e)) {
      states_[e.index].in_wheel = false;
      wake_component(e.index);
    } else if (wheel_stale_ > 0) {
      --wheel_stale_;  // A stale entry just fell out on its own.
    }
  });
  // Lazy-deletion leak fix: components woken early leave their entries
  // behind; sweep them out as soon as they are the majority so the wheel's
  // depth tracks the *sleeping* population, not the wake history.
  if (wheel_stale_ >= kPurgeMinStale && wheel_stale_ * 2 >= wheel_.size()) {
    wheel_.purge([this](const TimingWheel::Entry& e) { return live(e); });
    wheel_stale_ = 0;
    ++wheel_purges_;
  }
}

void Scheduler::run_cycles(Cycle n) {
  advance(now_ + n, nullptr);
  settle();
}

bool Scheduler::run_until(const std::function<bool()>& done, Cycle max_cycles) {
  if (done()) return true;
  const bool fired = advance(now_ + max_cycles, &done);
  settle();
  return fired;
}

bool Scheduler::advance(Cycle limit, const std::function<bool()>* done) {
  if (batch_dirty_) freeze();
  // An empty scheduler has nothing to skip: its clock just counts cycles.
  const bool skip = idle_skip_ && !batch_.empty();
  if (skip && !wake_valid_) partition();
  in_run_ = true;
  const Cycle start = now_;
  bool fired = false;
  while (now_ < limit && !fired) {
    if (skip) {
      skip_step(limit);
    } else {
      for (Clockable* c : batch_) c->tick();
      ++now_;
    }
    fired = done != nullptr && (*done)();
  }
  in_run_ = false;
  if (skip) {
    publish_next_wake();
  } else {
    // Every-tick mode ticked every component every cycle: account in bulk.
    // It ticks every cycle, so its lane hint is always now().
    const Cycle cycles = now_ - start;
    ticks_executed_ += cycles * batch_.size();
    for (std::size_t k = 0; k < batch_.size(); ++k) {
      stage_exec_[stage_bucket_[k]] += cycles;
    }
    next_wake_ = now_;
  }
  return fired;
}

void Scheduler::skip_step(Cycle limit) {
  drain_wheel();
  // Globally-quiescent gap: nothing but eager components is awake. Fast-
  // forward to the earliest wake bound (or the nearest eager event),
  // bulk-accounting the gap into the eager components immediately so
  // their externally visible clocks are exact at every cycle anything
  // runs. The wheel reports a *lower* bound (a bucket floor above level
  // 0), so a long gap may take a few hops — additive skip chunking makes
  // that bit-identical to one jump.
  if (awake_lazy_ == 0) {
    Cycle gap = limit - now_;
    const Cycle nb = wheel_.next_bound();
    if (nb != TimingWheel::kNever) gap = std::min(gap, nb - now_);
    for (std::size_t k = 0; k < eager_.size() && gap > 0; ++k) {
      gap = std::min(gap, batch_[eager_[k]]->quiescent_for());
    }
    if (gap > 0) {
      for (const u32 idx : eager_) {
        batch_[idx]->skip_idle(gap);
        stage_skip_[stage_bucket_[idx]] += gap;
      }
      ticks_skipped_ += gap * eager_.size();
      if (observer_ != nullptr) observer_->on_fast_forward(now_, gap);
      now_ += gap;
      ff_cycles_ += gap;
      ++ff_events_;
      ++ff_gap_log2_[static_cast<std::size_t>(std::bit_width(gap))];
      return;
    }
  }
  // One real cycle over the awake set, in frozen (stage) order. After
  // each tick the word is re-read above the cursor, so an index inserted
  // by wake_component mid-pass is picked up later in this same pass.
  in_cycle_ = true;
  for (std::size_t w = 0; w < active_.word_count(); ++w) {
    u64 m = active_.word(w);
    while (m != 0) {
      const auto bit = static_cast<u32>(std::countr_zero(m));
      const auto idx = static_cast<u32>(w * 64) + bit;
      cursor_ = idx;
      Clockable* c = batch_[idx];
      c->tick();
      ++ticks_executed_;
      ++stage_exec_[stage_bucket_[idx]];
      CompState& st = states_[idx];
      if (!st.eager) {
        const Cycle q = c->quiescent_for();
        if (q > 0) {
          st.sleeping = true;
          ++st.gen;
          st.slept_from = now_ + 1;
          if (q != Clockable::kIdleForever && q < Clockable::kIdleForever - now_ - 1) {
            wheel_.push(now_ + 1 + q, idx, st.gen);
            st.in_wheel = true;
            wheel_depth_max_ = std::max<u64>(wheel_depth_max_, wheel_.size());
          }
          active_.erase(idx);
          --awake_lazy_;
        }
      }
      // Re-read above the cursor: picks up same-cycle wakes at higher
      // indices of this word (u64{2} << 63 wraps to 0, masking the word
      // out entirely).
      m = active_.word(w) & ~((u64{2} << bit) - 1);
    }
  }
  in_cycle_ = false;
  cursor_ = kNoCursor;
  ++now_;
}

SchedulerProfile Scheduler::profile() const {
  SchedulerProfile p;
  p.ticks_executed = ticks_executed_;
  p.ticks_skipped = ticks_skipped_;
  p.ff_cycles = ff_cycles_;
  p.ff_events = ff_events_;
  p.wheel_depth_max = wheel_depth_max_;
  p.wheel_cascades = wheel_.cascades();
  p.wheel_purges = wheel_purges_;
  p.ff_gap_log2 = ff_gap_log2_;
  // Current counter vectors plus whatever earlier freezes flushed.
  std::map<int, std::pair<u64, u64>> by_stage = stage_totals_;
  for (std::size_t b = 0; b < stage_ids_.size(); ++b) {
    auto& [exec, skip] = by_stage[stage_ids_[b]];
    exec += stage_exec_[b];
    skip += stage_skip_[b];
  }
  p.stages.reserve(by_stage.size());
  for (const auto& [stage, counts] : by_stage) {
    p.stages.push_back(
        SchedulerProfile::Stage{stage, counts.first, counts.second});
  }
  return p;
}

void Scheduler::save_state(snap::Writer& w) {
  settle();
  w.io(now_);
  w.io(ticks_executed_);
  w.io(ticks_skipped_);
  w.io(ff_cycles_);
  w.io(ff_events_);
  w.io(wheel_depth_max_);
  w.io(wheel_purges_);
  w.io(ff_gap_log2_);
  // Per-stage counters are saved merged (live vectors + flushed totals) so
  // the restored profile equals the saving scheduler's profile() view.
  std::map<int, std::pair<u64, u64>> by_stage = stage_totals_;
  for (std::size_t b = 0; b < stage_ids_.size(); ++b) {
    auto& [exec, skip] = by_stage[stage_ids_[b]];
    exec += stage_exec_[b];
    skip += stage_skip_[b];
  }
  w.io(by_stage);
}

void Scheduler::load_state(snap::Reader& r) {
  r.io(now_);
  r.io(ticks_executed_);
  r.io(ticks_skipped_);
  r.io(ff_cycles_);
  r.io(ff_events_);
  r.io(wheel_depth_max_);
  r.io(wheel_purges_);
  r.io(ff_gap_log2_);
  r.io(stage_totals_);
  std::fill(stage_exec_.begin(), stage_exec_.end(), 0);
  std::fill(stage_skip_.begin(), stage_skip_.end(), 0);
  wake_valid_ = false;
  next_wake_ = now_;
}

}  // namespace drmp::sim
