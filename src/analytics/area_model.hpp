// Analytical logic-area model in gate equivalents (GE), calibrated once
// against the paper's published deltas for the MP64Spatz4 GF4 design
// (Fig. 5 left and §V-A): +35% VLSU (doubled ROB), +51% interconnect logic
// (GF4 response channel), +1.5 MGE Burst Manager + Burst Sender, ~+4.5 MGE
// total at <8% of cluster logic. SRAM macros are excluded (logic area, as
// in the paper's claim). The same formulas evaluate every configuration.
#pragma once

#include <string>

#include "src/cluster/cluster_config.hpp"

namespace tcdm {

/// Per-component logic area in GE for one full cluster.
struct AreaBreakdown {
  std::string config;
  double snitch = 0.0;
  double spatz_fpu = 0.0;   // FPU lanes
  double spatz_vrf = 0.0;   // vector register file
  double spatz_misc = 0.0;  // decoder, VIQ, chaining control
  double vlsu = 0.0;        // ports + ROBs
  double interconnect = 0.0;
  double burst = 0.0;       // Burst Manager + Burst Sender (0 for baseline)
  double banks_logic = 0.0;  // bank controllers (SRAM macro excluded)

  [[nodiscard]] double total() const {
    return snitch + spatz_fpu + spatz_vrf + spatz_misc + vlsu + interconnect + burst +
           banks_logic;
  }
};

[[nodiscard]] AreaBreakdown estimate_area(const ClusterConfig& cfg);

/// Relative logic-area overhead of `ext` over `base` (e.g. 0.075 = +7.5%).
[[nodiscard]] double area_overhead(const AreaBreakdown& base, const AreaBreakdown& ext);

}  // namespace tcdm
