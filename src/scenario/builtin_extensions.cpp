// Builtin extension suites: the kernel-coverage extension study, the
// area-bandwidth Pareto sweep, synthetic traffic patterns, and the two
// interactive studies (bandwidth explorer, scaling study) that used to be
// standalone examples. The studies register like everything else but opt
// out of default emission: they are exploration tools, not gated claims.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/analytics/area_model.hpp"
#include "src/analytics/report.hpp"
#include "src/scenario/builtin_suites.hpp"

namespace tcdm::scenario {
namespace builtin {
namespace {

// -------------------------------------------------------- ext_kernels -----

const std::vector<std::string>& ext_kernels() {
  static const std::vector<std::string> k = {"gemv",     "conv2d",     "jacobi2d",
                                             "relu",     "maxpool2x2", "transpose"};
  return k;
}

void print_ext_kernels(const ResultSet& rs) {
  for (const bool big : {false, true}) {
    std::printf("\n=== Extension kernels on %s: baseline vs GF4 ===\n",
                big ? "MP64Spatz4" : "MP4Spatz4");
    TableWriter tw({"kernel", "size", "AI [FLOP/B]", "base [cyc]", "GF4 [cyc]",
                    "speedup", "base BW [B/cyc/core]", "GF4 BW [B/cyc/core]",
                    "GF4 FPU util"});
    for (const std::string& kernel : ext_kernels()) {
      const std::string tag = kernel + (big ? "/mp64" : "/mp4");
      const KernelMetrics& b = rs.metrics(tag + "/base");
      const KernelMetrics& g = rs.metrics(tag + "/gf4");
      tw.add_row({kernel, g.size, fmt(g.arithmetic_intensity), std::to_string(b.cycles),
                  std::to_string(g.cycles),
                  fmt(static_cast<double>(b.cycles) / g.cycles, 2) + "x",
                  fmt(b.bw_per_core), fmt(g.bw_per_core), pct(g.fpu_util)});
    }
    tw.print(std::cout);
  }
  std::printf(
      "All kernels verify against host golden models in every configuration.\n"
      "MaxPool2x2 barely moves: all its loads are stride-2 vlse32, which the\n"
      "paper's VLE-keyed design never bursts (see tcdm_run run\n"
      "'ablation_stride/*' for the strided-burst extension that recovers it).\n"
      "Transpose moves no FLOPs; its speedup bounds store-dominated traffic\n"
      "(loads burst, strided stores serialize unchanged).\n");
}

// One template per testbed: the sizes scale with its TCDM. GEMV's A must
// fit: 256x512 fp32 = 512 KiB of MP64's 1 MiB; 32x128 = 16 KiB of MP4's
// 64 KiB.
constexpr const char* kExtKernels = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "ext_kernels",
  "description": "Extension kernels (GEMV, Conv2D, Jacobi2D, ReLU, MaxPool, Transpose) on MP4Spatz4 and MP64Spatz4, baseline vs GF4 — the memory-bound roofline region the paper does not evaluate",
  "scenarios": [
    {
      "name": "{kernel.label}/mp4/{variant.label}",
      "sweep": {
        "kernel": [
          {"label": "gemv", "spec": {"kind": "gemv", "m": 32, "n": 128}},
          {"label": "conv2d", "spec": {"kind": "conv2d", "h": 34, "w": 66}},
          {"label": "jacobi2d", "spec": {"kind": "jacobi2d", "h": 34, "w": 66}},
          {"label": "relu", "spec": {"kind": "relu", "n": 4096}},
          {"label": "maxpool2x2", "spec": {"kind": "maxpool2x2", "h": 16, "w": 48}},
          {"label": "transpose", "spec": {"kind": "transpose", "n": 48}}
        ],
        "variant": [{"label": "base", "gf": 0}, {"label": "gf4", "gf": 4}]
      },
      "config": {"preset": "mp4spatz4", "burst": {"gf": "{variant.gf}"}},
      "kernel": "{kernel.spec}",
      "options": {"max_cycles": 20000000}
    },
    {
      "name": "{kernel.label}/mp64/{variant.label}",
      "sweep": {
        "kernel": [
          {"label": "gemv", "spec": {"kind": "gemv", "m": 256, "n": 512}},
          {"label": "conv2d", "spec": {"kind": "conv2d", "h": 130, "w": 130}},
          {"label": "jacobi2d", "spec": {"kind": "jacobi2d", "h": 130, "w": 130}},
          {"label": "relu", "spec": {"kind": "relu", "n": 65536}},
          {"label": "maxpool2x2", "spec": {"kind": "maxpool2x2", "h": 64, "w": 128}},
          {"label": "transpose", "spec": {"kind": "transpose", "n": 128}}
        ],
        "variant": [{"label": "base", "gf": 0}, {"label": "gf4", "gf": 4}]
      },
      "config": {"preset": "mp64spatz4", "burst": {"gf": "{variant.gf}"}},
      "kernel": "{kernel.spec}",
      "options": {"max_cycles": 20000000}
    }
  ]
})json";

// ----------------------------------------------------- pareto_area_bw -----

const std::vector<std::string>& pareto_presets() {
  static const std::vector<std::string> p = {"mp4spatz4", "mp64spatz4", "mp128spatz8"};
  return p;
}

void print_pareto(const ResultSet& rs) {
  std::printf("\n=== Ablation: area vs bandwidth Pareto across grouping factors ===\n");
  TableWriter tw({"config", "GF", "probe BW [B/cyc/core]", "logic area [MGE]",
                  "area overhead", "BW gain per +MGE"});
  for (const std::string& preset : pareto_presets()) {
    const ClusterConfig base_cfg = ClusterConfig::by_name(preset);
    const AreaBreakdown base_area = estimate_area(base_cfg);
    const double base_bw = rs.metrics(preset + "/gf0").bw_per_core;
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      const ClusterConfig cfg = gf == 0 ? base_cfg : base_cfg.with_burst(gf);
      const AreaBreakdown area = estimate_area(cfg);
      const KernelMetrics& m = rs.metrics(preset + "/gf" + std::to_string(gf));
      const double extra_mge = (area.total() - base_area.total()) / 1e6;
      const double gain_per_mge =
          extra_mge > 0.0 ? (m.bw_per_core - base_bw) * cfg.num_cores() / extra_mge
                          : 0.0;
      tw.add_row({gf == 0 ? cfg.name : base_cfg.name, gf == 0 ? "-" : std::to_string(gf),
                  fmt(m.bw_per_core), fmt(area.total() / 1e6),
                  gf == 0 ? "-" : delta(area_overhead(base_area, area)),
                  gf == 0 ? "-" : fmt(gain_per_mge) + " B/cyc"});
    }
    tw.add_separator();
  }
  tw.print(std::cout);
  std::printf(
      "On the Spatz4 clusters bandwidth saturates at GF == K == 4 while\n"
      "response-channel area keeps growing: GF8 pays ~4%% extra area for\n"
      "zero bandwidth — the sweet spot is exactly the paper's GF4.\n"
      "On MP128Spatz8 (K = 8) gate count alone would justify GF4 or GF8;\n"
      "the paper ships GF2 because of routing CONGESTION — a wire-level\n"
      "constraint a logic-area model cannot see. This is a fidelity limit\n"
      "of the logic-area model (src/analytics/area_model.hpp).\n");
}

constexpr const char* kPareto = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "pareto_area_bw",
  "description": "Ablation: area-bandwidth Pareto front across grouping factors — random-probe bandwidth vs modeled logic area per cluster scale",
  "scenarios": [
    {
      "name": "{preset}/gf{gf}",
      "sweep": {"preset": ["mp4spatz4", "mp64spatz4", "mp128spatz8"], "gf": [0, 2, 4, 8]},
      "config": {"preset": "{preset}", "burst": {"gf": "{gf}"}},
      "kernel": {"kind": "random_probe"},
      "options": {"verify": false, "max_cycles": 10000000}
    }
  ]
})json";

void pareto_model(metrics::MetricsDoc& doc) {
  for (const std::string& preset : pareto_presets()) {
    const ClusterConfig base_cfg = ClusterConfig::by_name(preset);
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      const ClusterConfig cfg = gf == 0 ? base_cfg : base_cfg.with_burst(gf);
      doc.add(preset + "/gf" + std::to_string(gf) + "/model/area_mge",
              estimate_area(cfg).total() / 1e6, metrics::kModelRelTol);
    }
  }
}

// ----------------------------------------------------- trace_patterns -----

void print_trace_patterns(const ResultSet& rs) {
  std::printf(
      "\n=== Synthetic traffic patterns on MP64Spatz4 (trace replay, 64 "
      "accesses/hart) ===\n");
  TableWriter tw({"pattern", "base BW [B/cyc/core]", "GF4 BW [B/cyc/core]",
                  "burst gain", "base cycles", "GF4 cycles"});
  for (const std::string pattern : {"local", "neighbor", "uniform", "hotspot"}) {
    const KernelMetrics& b = rs.metrics(pattern + "/base");
    const KernelMetrics& g = rs.metrics(pattern + "/gf4");
    tw.add_row({pattern, fmt(b.bw_per_core), fmt(g.bw_per_core),
                delta(g.bw_per_core / b.bw_per_core - 1.0), std::to_string(b.cycles),
                std::to_string(g.cycles)});
  }
  tw.print(std::cout);
  std::printf(
      "Local traffic rides the full-width tile crossbar — bursts change\n"
      "nothing. Neighbor and uniform remote traffic gain the response-width\n"
      "factor. The hotspot is serialized by the hot tile's banks and\n"
      "response ports, not by the requesters' channels, so bursts recover\n"
      "only part of the loss — congestion the paper's Fig. 1 attributes to\n"
      "port competition remains when the destination itself is the\n"
      "bottleneck.\n");
}

constexpr const char* kTracePatterns = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "trace_patterns",
  "description": "Synthetic traffic study: local/neighbor/uniform/hotspot trace replay on MP64Spatz4, baseline vs GF4",
  "scenarios": [
    {
      "name": "{pattern}/{variant.label}",
      "sweep": {
        "pattern": ["local", "neighbor", "uniform", "hotspot"],
        "variant": [{"label": "base", "gf": 0}, {"label": "gf4", "gf": 4}]
      },
      "config": {"preset": "mp64spatz4", "burst": {"gf": "{variant.gf}"}},
      "kernel": {"kind": "trace_replay", "pattern": "{pattern}", "entries_per_hart": 64,
                 "seed": 31},
      "options": {"verify": false, "max_cycles": 20000000}
    }
  ]
})json";

// ----------------------------------------------------------- explorer -----

// No printer: `tcdm_run run` renders the generic per-scenario table. GF8
// rides along for parity with the ablation_gf sweep.
constexpr const char* kExplorer = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "explorer",
  "description": "Bandwidth explorer: per-preset hierarchical-average bandwidth under uniform / remote-only / local-only probe traffic (interactive study)",
  "emit_by_default": false,
  "scenarios": [
    {
      "name": "{preset}/{variant.label}/{pattern}",
      "sweep": {
        "preset": ["mp4spatz4", "mp64spatz4", "mp128spatz8"],
        "variant": [{"label": "baseline", "gf": 0}, {"label": "gf2", "gf": 2},
                    {"label": "gf4", "gf": 4}, {"label": "gf8", "gf": 8}],
        "pattern": ["uniform", "remote", "local"]
      },
      "config": {"preset": "{preset}", "burst": {"gf": "{variant.gf}"}},
      "kernel": {"kind": "random_probe", "pattern": "{pattern}"},
      "options": {"verify": false, "max_cycles": 5000000}
    }
  ]
})json";

// ------------------------------------------------------------ scaling -----

constexpr unsigned kScalingTiles[] = {4u, 16u, 32u, 64u, 128u};

void print_scaling(const ResultSet& rs) {
  std::printf("Scaling study: DotP, 1024 elements per core, baseline vs GF4\n\n");
  std::printf("%8s %6s | %21s | %21s | %s\n", "", "", "baseline", "GF4 burst", "");
  std::printf("%8s %6s | %10s %10s | %10s %10s | %s\n", "tiles", "FPUs", "BW/core",
              "util", "BW/core", "util", "speedup");
  // Every scaled config keeps MP4Spatz4's tiles, so its per-VLSU peak.
  const ClusterConfig tile = ClusterConfig::mp4spatz4();
  for (unsigned tiles : kScalingTiles) {
    // Split concatenation sidesteps a GCC-12 -Wrestrict false positive on
    // chained operator+ over std::to_string temporaries.
    std::string prefix = "t";
    prefix += std::to_string(tiles);
    const KernelMetrics& base = rs.metrics(prefix + "/baseline");
    const KernelMetrics& gf4 = rs.metrics(prefix + "/gf4");
    std::printf("%8u %6u | %10.2f %9.1f%% | %10.2f %9.1f%% | %.2fx\n", tiles,
                tiles * tile.vlsu_ports, base.bw_per_core,
                100.0 * base.bw_per_core / tile.vlsu_peak_bw(), gf4.bw_per_core,
                100.0 * gf4.bw_per_core / tile.vlsu_peak_bw(),
                static_cast<double>(base.cycles) / gf4.cycles);
  }
  std::printf(
      "\nBaseline utilization collapses with scale (more remote traffic,\n"
      "same serialized ports); GF4 holds utilization high — the paper's\n"
      "scalability argument in one sweep.\n");
}

// MemPool-style configurations with `tiles` tiles of 4 FPUs each, grouped
// 16 tiles per group above 16 tiles (the MP64Spatz4 pattern); DotP keeps
// 1024 elements per core.
constexpr const char* kScaling = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "scaling",
  "description": "Scaling study: DotP with a constant per-core working set on 4 -> 128 tiles (16 -> 1024 FPUs), baseline vs GF4 (interactive study)",
  "emit_by_default": false,
  "scenarios": [
    {
      "name": "t{scale.tiles}/{variant.label}",
      "sweep": {
        "scale": [
          {"tiles": 4, "n": 4096, "levels": [1, 4],
           "latency": [{"request": 1, "response": 1}, {"request": 1, "response": 1}]},
          {"tiles": 16, "n": 16384, "levels": [1, 16],
           "latency": [{"request": 1, "response": 1}, {"request": 1, "response": 1}]},
          {"tiles": 32, "n": 32768, "levels": [16, 2],
           "latency": [{"request": 1, "response": 1}, {"request": 2, "response": 2}]},
          {"tiles": 64, "n": 65536, "levels": [16, 4],
           "latency": [{"request": 1, "response": 1}, {"request": 2, "response": 2}]},
          {"tiles": 128, "n": 131072, "levels": [16, 8],
           "latency": [{"request": 1, "response": 1}, {"request": 2, "response": 2}]}
        ],
        "variant": [{"label": "baseline", "gf": 0}, {"label": "gf4", "gf": 4}]
      },
      "config": {"preset": "mp4spatz4", "name": "mp{scale.tiles}spatz4",
                 "num_tiles": "{scale.tiles}", "level_sizes": "{scale.levels}",
                 "level_latency": "{scale.latency}", "burst": {"gf": "{variant.gf}"}},
      "kernel": {"kind": "dotp", "n": "{scale.n}"},
      "options": {"max_cycles": 20000000}
    }
  ]
})json";

}  // namespace

std::vector<Suite> extension_suites() {
  return {
      {.document = kExtKernels, .print = print_ext_kernels},
      {.document = kPareto, .print = print_pareto, .emit_model = pareto_model},
      {.document = kTracePatterns, .print = print_trace_patterns},
      {.document = kExplorer},
      {.document = kScaling, .print = print_scaling},
  };
}

}  // namespace builtin
}  // namespace tcdm::scenario
