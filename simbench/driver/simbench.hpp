// Simulator benchmark driver: the pieces shared by the driver (main.cpp) and
// its self-test (selftest.cpp). See simbench/README.md for the workloads,
// the metrics and the layer -> metric -> workload map.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.hpp"

namespace simbench {

// ------------------------------------------------------------ workloads ----

struct WorkloadInfo {
  const char* name;
  const char* why;
  /// Closed-loop sweep workers of the untraced run (the traced run is serial).
  unsigned workers;
};

[[nodiscard]] const std::vector<WorkloadInfo>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadInfo* find_workload(std::string_view name);

/// The workload as a tcdm-scenarios v1 suite document (JSON text). The same
/// (workload, seed) gives the same bytes; the seed drives kernel data and
/// the probe and trace patterns, never the set of scenarios.
[[nodiscard]] std::string generate_suite(const WorkloadInfo& w, std::uint64_t seed);

/// The Table II baseline/design pairs of one or all testbeds, as a suite
/// named `suite`: scenario names are "<preset>/<variant>/<kernel>" with the
/// problem sizes of the builtin table2 suite. Used by paper-table2 itself
/// and, for the MP4Spatz4 column only, as the accuracy probe that the other
/// workloads run after their timed passes.
[[nodiscard]] std::string generate_table2_suite(const std::string& suite, std::uint64_t seed,
                                                bool mp4_only);

// --------------------------------------------------------------- paper ----

/// One Table II performance gain of the paper: burst design point (GF4, or
/// GF2 on MP128Spatz8) over the baseline, in percent.
struct PaperGain {
  const char* preset;
  const char* kernel;
  const char* design;  // variant name of the design point ("gf4" / "gf2")
  double gain_pct;
};

/// The 12 Table II gains (paper Table II, "performance improvement" of the
/// TCDM Burst design point over the baseline, per testbed and kernel).
[[nodiscard]] const std::vector<PaperGain>& paper_table2_gains();

/// Simulated gain in percent from the baseline and design FLOP/cycle.
[[nodiscard]] double gain_pct(double base_flops_per_cycle, double design_flops_per_cycle);

/// Mean absolute error in percentage points between simulated and paper
/// gains (same length, nonempty).
[[nodiscard]] double mae_pp(const std::vector<double>& simulated_pct,
                            const std::vector<double>& paper_pct);

// -------------------------------------------------------------- metrics ----

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "higher" or "lower"
  bool per_layer;      // false: end-to-end (--trace 0); true: traced run (--trace 1)
};

/// Every metric the driver emits, in emission order.
[[nodiscard]] const std::vector<MetricDef>& metric_catalog();
[[nodiscard]] const MetricDef* find_metric(std::string_view name);

// --------------------------------------------------------------- tracer ----

/// In-memory span recorder for the traced run. Spans are real intervals
/// (name, start, end, parent, scenario); aggregates sum many short calls of
/// one kind under a parent span (the per-cycle step/probe/skip calls, too
/// many to keep one by one). Times are seconds since the tracer's epoch.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::uint32_t parent = kNoParent;
    std::uint32_t scenario = 0;
  };
  struct Aggregate {
    std::string name;
    std::uint32_t parent = kNoParent;
    std::uint64_t calls = 0;
    double total = 0.0;
  };

  Tracer();

  /// Seconds since the epoch (steady clock).
  [[nodiscard]] double now() const;

  /// Open a span under the innermost open span; returns its id.
  std::uint32_t begin(const std::string& name, std::uint32_t scenario);
  /// Close the innermost open span (must be `id`).
  void end(std::uint32_t id);
  /// Add `calls` calls totalling `seconds` to the aggregate `name` under
  /// the innermost open span.
  void add(const std::string& name, std::uint64_t calls, double seconds);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Aggregate>& aggregates() const { return aggregates_; }

  /// Self time of every span: its duration minus the parts covered by its
  /// child spans and aggregates.
  [[nodiscard]] std::vector<double> self_times() const;

  /// Span and aggregate dump plus the caller's per-scenario counts, as one
  /// JSON document.
  [[nodiscard]] std::string dump(tcdm::Json counts) const;

 private:
  std::int64_t epoch_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
  std::vector<std::uint32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, std::uint32_t scenario)
      : t_(t), id_(t.begin(name, scenario)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace simbench
