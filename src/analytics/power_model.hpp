// Activity-based energy model (substitute for the paper's post-PnR
// PrimeTime flow). Every dynamic term is
//   (simulated event count) x (per-event energy constant),
// plus an idle/clock-tree power proportional to modeled logic area. The
// constants are calibrated once against Table II's nominal-corner power for
// MP64Spatz4 and then held fixed: all baseline-vs-burst efficiency trends
// come from the simulator's activity counts.
#pragma once

#include <string>

#include "src/cluster/cluster.hpp"

namespace tcdm {

struct PowerBreakdown {
  std::string config;
  double fpu_w = 0.0;
  double vrf_w = 0.0;
  double vlsu_w = 0.0;    // ports, ROBs, address generation
  double snitch_w = 0.0;
  double icn_w = 0.0;     // hierarchical network (hop-weighted)
  double banks_w = 0.0;
  double burst_w = 0.0;   // Burst Sender + Burst Manager
  double static_w = 0.0;  // leakage + clock tree (area-proportional)

  [[nodiscard]] double total() const {
    return fpu_w + vrf_w + vlsu_w + snitch_w + icn_w + banks_w + burst_w + static_w;
  }
};

/// Estimate average power over a finished run of `cycles` at `freq_mhz`
/// (the paper reports power at the nominal tt corner).
[[nodiscard]] PowerBreakdown estimate_power(const Cluster& cluster, Cycle cycles,
                                            double freq_mhz);

/// Energy efficiency in GFLOPS/W given performance at the same corner.
[[nodiscard]] double energy_efficiency(double gflops, const PowerBreakdown& power);

}  // namespace tcdm
