// Regression gate over exported metrics documents: diff a freshly emitted
// MetricsDoc against a recorded baseline, judge every metric against its
// per-metric relative tolerance, and render a human-readable delta table.
// tools/check_regression.cpp is a thin wrapper around run_check_cli so the
// CLI's behaviour (argument parsing, exit codes) is unit-testable in-process.
#pragma once

#include <string>
#include <vector>

#include "src/analytics/metrics_export.hpp"

namespace tcdm::metrics {

enum class DiffStatus {
  kOk,              // within tolerance
  kOutOfTolerance,  // |delta| exceeds the baseline's rel_tol
  kNotFinite,       // current value is NaN/Inf — always a failure
  kMissing,         // in the baseline but absent from the current export
  kNew,             // emitted but not recorded — a failure (record it first)
};

struct MetricDiff {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;  // (current - baseline) / |baseline|
  double rel_tol = 0.0;
  DiffStatus status = DiffStatus::kOk;
};

struct CompareResult {
  std::vector<MetricDiff> diffs;  // baseline order, then new metrics
  unsigned num_ok = 0;
  unsigned num_out_of_tolerance = 0;
  unsigned num_not_finite = 0;
  unsigned num_missing = 0;
  unsigned num_new = 0;

  [[nodiscard]] bool passed() const {
    return num_out_of_tolerance == 0 && num_not_finite == 0 && num_missing == 0 &&
           num_new == 0;
  }
};

[[nodiscard]] CompareResult compare(const MetricsDoc& baseline, const MetricsDoc& current);

/// Delta table (TableWriter format) of every non-OK metric plus summary
/// counts; `verbose` includes in-tolerance rows too.
[[nodiscard]] std::string render_delta_table(const CompareResult& result,
                                             bool verbose = false);

/// The check_regression command line:
///   check_regression [--verbose] <baseline.json> <current.json> [<b2> <c2> ...]
///     --verbose         print in-tolerance rows too
/// Returns 0 when every pair passes, 1 on regression, 2 on usage/IO errors.
[[nodiscard]] int run_check_cli(int argc, const char* const* argv);

}  // namespace tcdm::metrics
