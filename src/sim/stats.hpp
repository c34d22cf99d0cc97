// Header-only collectors shared by the components and the scenario engine:
//   * StateOccupancy -> Fig. 5.12 (state occupation in the task handlers).
//     Each TaskHandler and the ReconfController own theirs; busy time
//     (Table 5.1's IRC rows) is total() minus the Idle bucket. The other
//     busy counts live in the components themselves (Rfu, CpuModel,
//     PacketBus: busy_cycles()).
//   * Digest         -> the order-sensitive fold behind every pinned digest.
#pragma once

#include <map>

#include "common/types.hpp"

namespace drmp::sim {

/// Per-state cycle histogram for a finite-state controller.
class StateOccupancy {
 public:
  void sample(int state) { ++cycles_[state]; }
  /// Bulk form: n consecutive cycles in one state (quiescence skip path).
  void sample_n(int state, Cycle n) { cycles_[state] += n; }
  Cycle cycles_in(int state) const {
    auto it = cycles_.find(state);
    return it == cycles_.end() ? 0 : it->second;
  }
  Cycle total() const {
    Cycle t = 0;
    for (const auto& [s, c] : cycles_) t += c;
    return t;
  }
  const std::map<int, Cycle>& table() const noexcept { return cycles_; }

  /// Checkpoint support (sim/checkpoint.hpp).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(cycles_);
  }

 private:
  std::map<int, Cycle> cycles_;
};

/// Order-sensitive FNV-1a accumulator over counter streams. The scenario
/// engine folds every per-device counter into one of these, so "same seed =>
/// byte-identical aggregate stats" collapses to a single u64 comparison.
class Digest {
 public:
  Digest() = default;
  /// Resumes a chain from a previously observed value() — the hierarchical
  /// fold path (FleetStats::fold_retired) keeps a running digest this way.
  explicit Digest(u64 resumed) noexcept : h_(resumed) {}

  Digest& mix(u64 v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
    return *this;
  }
  u64 value() const noexcept { return h_; }

 private:
  u64 h_ = 0xCBF29CE484222325ull;
};

}  // namespace drmp::sim
