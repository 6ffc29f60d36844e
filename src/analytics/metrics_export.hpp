// Structured export of simulated paper metrics (Table I / Table II / Fig. 3
// results) to a stable, versioned JSON schema — the wire format between
// `tcdm_run emit`, the recorded baselines/ files, and the check_regression
// comparator.
//
// Schema (version 1):
//   {
//     "schema": "tcdm-metrics",
//     "schema_version": 1,
//     "suite": "table1",
//     "description": "free text",
//     "metrics": {
//       "mp4spatz4/gf4/sim/bw_per_core": {"value": 13.9, "rel_tol": 0.02},
//       ...
//     }
//   }
// Metric names are hierarchical `/`-joined paths so the comparator's delta
// table groups naturally. Every metric carries its own relative tolerance;
// a baseline therefore documents how much drift each figure may accumulate
// before the regression gate fails.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "src/analytics/power_model.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/common/json.hpp"
#include "src/common/json_fields.hpp"

namespace tcdm {

/// Field lists of a complete simulation result (json_fields.hpp), which the
/// explore memo cache persists; doubles round-trip bit for bit. The
/// system dimension is written off-default only, so cluster-run documents
/// stay byte-identical to those written before the system layer existed.
template <class V>
void json_fields(V& v, KernelMetrics& m) {
  v("config", m.config, Key::kRequired);
  v("kernel", m.kernel, Key::kRequired);
  v("size", m.size, Key::kRequired);
  v("cycles", m.cycles, Key::kRequired);
  v("flops", m.flops, Key::kRequired);
  v("bytes", m.bytes, Key::kRequired);
  v("fpu_util", m.fpu_util, Key::kRequired);
  v("flops_per_cycle", m.flops_per_cycle, Key::kRequired);
  v("gflops_ss", m.gflops_ss, Key::kRequired);
  v("gflops_tt", m.gflops_tt, Key::kRequired);
  v("bw_bytes_per_cycle", m.bw_bytes_per_cycle, Key::kRequired);
  v("bw_per_core", m.bw_per_core, Key::kRequired);
  v("arithmetic_intensity", m.arithmetic_intensity, Key::kRequired);
  v("verified", m.verified, Key::kRequired);
  v("timed_out", m.timed_out, Key::kRequired);
  v.omit_at("clusters", m.clusters, 1u);
  v.omit_at("noc_bytes", m.noc_bytes, 0.0);
}

template <class V>
void json_fields(V& v, PowerBreakdown& p) {
  v("config", p.config, Key::kRequired);
  v("fpu_w", p.fpu_w, Key::kRequired);
  v("vrf_w", p.vrf_w, Key::kRequired);
  v("vlsu_w", p.vlsu_w, Key::kRequired);
  v("snitch_w", p.snitch_w, Key::kRequired);
  v("icn_w", p.icn_w, Key::kRequired);
  v("banks_w", p.banks_w, Key::kRequired);
  v("burst_w", p.burst_w, Key::kRequired);
  v("static_w", p.static_w, Key::kRequired);
}

}  // namespace tcdm

namespace tcdm::metrics {

inline constexpr const char* kSchemaName = "tcdm-metrics";
inline constexpr int kSchemaVersion = 1;

/// Default relative tolerances by metric provenance. Closed-form model
/// values must reproduce exactly (modulo float noise); simulated values are
/// deterministic too, but get headroom so benign scheduling refactors do not
/// force a re-record; boolean/count metrics must match exactly.
inline constexpr double kModelRelTol = 1e-9;
inline constexpr double kSimRelTol = 0.02;
inline constexpr double kExactTol = 0.0;

class SchemaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Metric {
  double value = 0.0;
  double rel_tol = kSimRelTol;
};

struct MetricsDoc {
  std::string suite;
  std::string description;
  std::map<std::string, Metric> metrics;  // sorted: stable dumps, clean diffs

  void add(const std::string& name, double value, double rel_tol);

  /// Record the regression-relevant fields of one kernel run under
  /// `prefix/`: cycles, bw_per_core, fpu_util, gflops_ss,
  /// arithmetic_intensity (all at `sim_tol`) and verified (exact).
  void add_kernel_metrics(const std::string& prefix, const KernelMetrics& m,
                          double sim_tol = kSimRelTol);

  [[nodiscard]] Json to_json() const;
  /// Validates schema name/version; throws SchemaError on mismatch or
  /// structurally invalid documents (a missing or mistyped field, an
  /// unknown key), naming the `/`-joined path of the offending key.
  static MetricsDoc from_json(const Json& j);

  void write_file(const std::string& path) const;
  /// Throws std::runtime_error naming `path` when unreadable or malformed.
  static MetricsDoc read_file(const std::string& path);
};

}  // namespace tcdm::metrics
