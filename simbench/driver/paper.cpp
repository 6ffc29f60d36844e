// Paper reference for the accuracy metric: the Table II performance gains
// of TCDM Burst Access over the baseline (Shen et al., "TCDM Burst Access:
// Breaking the Bandwidth Barrier in Shared-L1 RVV Clusters Beyond 1000
// FPUs", DATE 2025, Table II), for the three testbeds MP4Spatz4 (GF4),
// MP64Spatz4 (GF4) and MP128Spatz8 (GF2). The same numbers are printed as
// the "Paper reference" footer of `tcdm_run run 'table2/*'`.
#include <cmath>
#include <stdexcept>

#include "driver/simbench.hpp"

namespace simbench {

const std::vector<PaperGain>& paper_table2_gains() {
  static const std::vector<PaperGain> gains = {
      {"mp4spatz4", "dotp", "gf4", 106.0},
      {"mp4spatz4", "fft", "gf4", 41.0},
      {"mp4spatz4", "matmul-s", "gf4", 2.0},
      {"mp4spatz4", "matmul-l", "gf4", 0.0},
      {"mp64spatz4", "dotp", "gf4", 176.0},
      {"mp64spatz4", "fft", "gf4", 64.0},
      {"mp64spatz4", "matmul-s", "gf4", 35.0},
      {"mp64spatz4", "matmul-l", "gf4", 2.0},
      {"mp128spatz8", "dotp", "gf2", 80.0},
      {"mp128spatz8", "fft", "gf2", 47.0},
      {"mp128spatz8", "matmul-s", "gf2", 62.0},
      {"mp128spatz8", "matmul-l", "gf2", 12.0},
  };
  return gains;
}

double gain_pct(double base_flops_per_cycle, double design_flops_per_cycle) {
  if (!(base_flops_per_cycle > 0.0)) {
    throw std::invalid_argument("gain_pct: baseline FLOP/cycle must be positive");
  }
  return (design_flops_per_cycle / base_flops_per_cycle - 1.0) * 100.0;
}

double mae_pp(const std::vector<double>& simulated_pct, const std::vector<double>& paper_pct) {
  if (simulated_pct.empty() || simulated_pct.size() != paper_pct.size()) {
    throw std::invalid_argument("mae_pp: need two nonempty series of equal length");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < simulated_pct.size(); ++i) {
    sum += std::fabs(simulated_pct[i] - paper_pct[i]);
  }
  return sum / static_cast<double>(simulated_pct.size());
}

}  // namespace simbench
