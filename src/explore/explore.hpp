// Memoized design-space exploration over a data-driven scenario suite (the
// `tcdm_run explore` backend). The driver walks the suite's expanded design
// points in deterministic (expansion) order, in fixed-size waves:
//
//   scan   — per candidate: canonical key (config_hash), closed-form area,
//            admissibility (area cap), exact dominance pruning against the
//            committed frontier (value upper bound, so pruning can never
//            change the outcome), then memo lookup (hit = free) or
//            simulation scheduling (miss);
//   run    — the wave's misses simulate on the sweep runner
//            (`-j` scenario-parallel);
//   fold   — results commit into the Pareto frontier in candidate order.
//
// Wave size is a constant, so pruning decisions — and therefore the report,
// byte for byte — are independent of `jobs`. The budget caps
// *simulations* (cache hits are free). The memo store is the only
// persisted state: it is flushed after every result, so a search stopped by
// the budget, an injected abort or a kill at any point continues by
// rerunning with the same cache — the replay answers every completed
// simulation from the store and converges on the same frontier.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/explore/config_hash.hpp"
#include "src/explore/memo_store.hpp"
#include "src/explore/pareto.hpp"

namespace tcdm::explore {

inline constexpr const char* kReportSchemaName = "tcdm-explore-report";
inline constexpr int kReportSchemaVersion = 1;

/// Candidates per wave. A constant (not derived from `jobs`) so that the
/// prune/evaluate schedule and the final report are identical at any
/// parallelism.
inline constexpr std::size_t kWaveSize = 8;

/// Thrown by the --fail-after fault-injection hook once the allowed
/// simulations are in the memo store; the CLI maps it to exit 3 so tests
/// can tell an injected abort from a real failure.
class ExploreAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ExploreOptions {
  Objective objective{};
  /// Maximum simulations this invocation may run (cache hits are free);
  /// 0 = unlimited. Exhausting it returns with budget_exhausted set; a
  /// rerun with the same cache_path (and a larger or no budget) continues.
  std::size_t budget = 0;
  /// JSON-lines memo store path; empty = memoize in memory only.
  std::string cache_path;
  /// Exact dominance pruning. Off = pure exhaustive enumeration; the final
  /// frontier is identical either way (the differential suites prove it).
  bool prune = true;
  unsigned jobs = 1;         // scenario-parallel sweep workers
  /// Stepping-mode override for the sweep (unset = per-spec). Results,
  /// memo entries and reports are bit-identical in every mode.
  std::optional<SteppingMode> stepping;
  /// Fault injection: abort (ExploreAborted) once this many simulations
  /// have completed and been cached. 0 = disabled.
  std::size_t fail_after = 0;
  std::ostream* log = nullptr;  // progress notes
};

struct ExploreOutcome {
  std::vector<FrontierPoint> frontier;
  std::size_t candidates = 0;
  std::size_t pruned_area_cap = 0;
  std::size_t pruned_dominated = 0;
  std::size_t cache_hits = 0;
  std::size_t simulations = 0;
  std::size_t failures = 0;       // simulated points that errored
  bool budget_exhausted = false;
};

/// Run the search. Throws ExploreFileError on a corrupt or
/// version-mismatched cache file, ExploreAborted from the fail-after hook, std::runtime_error
/// on IO failures. Scenario-level failures do NOT throw: they are counted,
/// cached and excluded from the frontier.
[[nodiscard]] ExploreOutcome run_explore(const scenario::LoadedSuite& suite,
                                         const ExploreOptions& opts);

/// The Pareto report document. Deliberately free of run statistics: a
/// warm-cache rerun emits byte-identical bytes to the cold run that filled
/// the cache (locked by CTest).
[[nodiscard]] Json report_json(const scenario::LoadedSuite& suite,
                               const ExploreOptions& opts,
                               const ExploreOutcome& outcome);

/// Render the frontier as a console table (the `run` subcommand analogue).
void print_frontier(std::ostream& os, const ExploreOptions& opts,
                    const ExploreOutcome& outcome);

}  // namespace tcdm::explore
