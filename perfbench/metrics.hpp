// Derived-metric arithmetic of the benchmark, kept apart from the workloads
// so the benchmark's tests can check it on hand-built FleetStats values.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "scenario/fleet_stats.hpp"

namespace perfbench {

using drmp::Cycle;
using drmp::u64;

/// Traffic MSDUs offered to the fleet (DeviceStats::offered). In a drained
/// run every one of them has resolved. tx_ok and completed are not used:
/// they also count mac::LinkMgr probe and association frames.
u64 traffic_msdus(const drmp::scenario::FleetStats& fs);
/// Payload bytes of those MSDUs (DeviceStats::offered_bytes).
u64 traffic_bytes(const drmp::scenario::FleetStats& fs);

/// Mean simulated cycles a device ran until its lane drained. A fleet's
/// lockstep cycle count is the slowest lane's, which swings with the seed.
double mean_device_cycles(const drmp::scenario::FleetStats& fs);

/// 1 - collided airtime / busy airtime, over every band of every
/// shared-medium cell. 0 when no shared medium carried anything.
double airtime_efficiency(const drmp::scenario::FleetStats& fs);

/// Modelled energy in nJ of a device drawing `mw` for `cycles` cycles of an
/// `arch_freq_hz` clock.
double energy_nj(double mw, Cycle cycles, double arch_freq_hz);
/// Sum over devices of gated_mw x simulated run time, divided by the traffic
/// bits offered. Every device is assumed to run at `arch_freq_hz`. 0 when
/// no traffic was offered.
double energy_nj_per_bit(const drmp::scenario::FleetStats& fs, double arch_freq_hz);

/// Failed repetitions over attempted ones (0 when none were attempted).
double fail_ratio(u64 failed, u64 attempted);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench
