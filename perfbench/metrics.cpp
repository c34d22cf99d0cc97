#include "metrics.hpp"

#include <algorithm>

namespace perfbench {

using drmp::kNumModes;
using drmp::scenario::CellStats;
using drmp::scenario::DeviceStats;
using drmp::scenario::FleetStats;

u64 traffic_msdus(const FleetStats& fs) {
  u64 n = 0;
  for (const DeviceStats& ds : fs.devices) {
    for (std::size_t m = 0; m < kNumModes; ++m) n += ds.offered[m];
  }
  return n;
}

u64 traffic_bytes(const FleetStats& fs) {
  u64 n = 0;
  for (const DeviceStats& ds : fs.devices) {
    for (std::size_t m = 0; m < kNumModes; ++m) n += ds.offered_bytes[m];
  }
  return n;
}

double mean_device_cycles(const FleetStats& fs) {
  const u64 n = fs.devices.size() + fs.folded_devices;
  return n == 0 ? 0.0 : static_cast<double>(fs.device_cycles_total()) / static_cast<double>(n);
}

double airtime_efficiency(const FleetStats& fs) {
  Cycle busy = 0;
  Cycle collided = 0;
  for (const CellStats& cs : fs.cells) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      busy += cs.busy_cycles[m];
      collided += cs.collided_airtime[m];
    }
  }
  if (busy == 0) return 0.0;
  return 1.0 - static_cast<double>(collided) / static_cast<double>(busy);
}

double energy_nj(double mw, Cycle cycles, double arch_freq_hz) {
  // mW x s = mJ = 1e6 nJ.
  return mw * (static_cast<double>(cycles) / arch_freq_hz) * 1e6;
}

double energy_nj_per_bit(const FleetStats& fs, double arch_freq_hz) {
  const u64 bits = 8 * traffic_bytes(fs);
  if (bits == 0) return 0.0;
  double nj = 0.0;
  for (const DeviceStats& ds : fs.devices) {
    nj += energy_nj(ds.power.gated_mw, ds.cycles_run, arch_freq_hz);
  }
  return nj / static_cast<double>(bits);
}

double fail_ratio(u64 failed, u64 attempted) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace perfbench
