// Builtin extension suites: the kernel-coverage extension study, the
// area-bandwidth Pareto sweep, synthetic traffic patterns, and the two
// interactive studies (bandwidth explorer, scaling study) that used to be
// standalone examples. The studies register like everything else but opt
// out of default emission: they are exploration tools, not gated claims.
#include <cstdio>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "src/analytics/area_model.hpp"
#include "src/analytics/report.hpp"
#include "src/kernels/conv2d.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/gemv.hpp"
#include "src/kernels/maxpool.hpp"
#include "src/kernels/probes.hpp"
#include "src/kernels/relu.hpp"
#include "src/kernels/stencil.hpp"
#include "src/kernels/trace_replay.hpp"
#include "src/kernels/transpose.hpp"
#include "src/scenario/builtin.hpp"

namespace tcdm::scenario {
namespace builtin {
namespace {

// -------------------------------------------------------- ext_kernels -----

std::unique_ptr<Kernel> make_ext_kernel(const std::string& name, bool big) {
  if (name == "gemv") {
    // A must fit TCDM: 256x512 fp32 = 512 KiB of MP64's 1 MiB; 32x128 =
    // 16 KiB of MP4's 64 KiB.
    return big ? std::make_unique<GemvKernel>(256, 512)
               : std::make_unique<GemvKernel>(32, 128);
  }
  if (name == "conv2d") {
    return big ? std::make_unique<Conv2dKernel>(130, 130)
               : std::make_unique<Conv2dKernel>(34, 66);
  }
  if (name == "jacobi2d") {
    return big ? std::make_unique<Jacobi2dKernel>(130, 130)
               : std::make_unique<Jacobi2dKernel>(34, 66);
  }
  if (name == "relu") {
    return big ? std::make_unique<ReluKernel>(65536) : std::make_unique<ReluKernel>(4096);
  }
  if (name == "maxpool2x2") {
    return big ? std::make_unique<MaxPoolKernel>(64, 128)
               : std::make_unique<MaxPoolKernel>(16, 48);
  }
  return big ? std::make_unique<TransposeKernel>(128)
             : std::make_unique<TransposeKernel>(48);
}

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

void register_ext_kernels(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "ext_kernels";
  suite.description =
      "Extension kernels (GEMV, Conv2D, Jacobi2D, ReLU, MaxPool, Transpose) "
      "on MP4Spatz4 and MP64Spatz4, baseline vs GF4 — the memory-bound "
      "roofline region the paper does not evaluate";
  suite.print = print_ext_kernels;
  reg.add_suite(std::move(suite));

  for (const std::string& kernel : ext_kernels()) {
    for (const bool big : {false, true}) {
      for (const bool burst : {false, true}) {
        ScenarioSpec s;
        s.name = "ext_kernels/" + kernel + (big ? "/mp64" : "/mp4") +
                 (burst ? "/gf4" : "/base");
        s.config = [big, burst] {
          ClusterConfig cfg =
              big ? ClusterConfig::mp64spatz4() : ClusterConfig::mp4spatz4();
          return burst ? cfg.with_burst(4) : cfg;
        };
        s.kernel = [kernel, big] { return make_ext_kernel(kernel, big); };
        s.opts.max_cycles = 20'000'000;
        reg.add(std::move(s));
      }
    }
  }
}

// ----------------------------------------------------- pareto_area_bw -----

const std::vector<std::string>& pareto_presets() { return testbed_presets(); }

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
      "constraint a logic-area model cannot see. This is a documented\n"
      "fidelity limit of the substitution (DESIGN.md section 1).\n");
}

void register_pareto(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "pareto_area_bw";
  suite.description =
      "Ablation: area-bandwidth Pareto front across grouping factors — "
      "random-probe bandwidth vs modeled logic area per cluster scale";
  suite.emit_model = [](metrics::MetricsDoc& doc) {
    for (const std::string& preset : pareto_presets()) {
      const ClusterConfig base_cfg = ClusterConfig::by_name(preset);
      for (unsigned gf : {0u, 2u, 4u, 8u}) {
        const ClusterConfig cfg = gf == 0 ? base_cfg : base_cfg.with_burst(gf);
        doc.add(preset + "/gf" + std::to_string(gf) + "/model/area_mge",
                estimate_area(cfg).total() / 1e6, metrics::kModelRelTol);
      }
    }
  };
  suite.print = print_pareto;
  reg.add_suite(std::move(suite));

  for (const std::string& preset : pareto_presets()) {
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      ScenarioSpec s;
      s.name = "pareto_area_bw/" + preset + "/gf" + std::to_string(gf);
      s.config = [preset, gf] {
        ClusterConfig cfg = ClusterConfig::by_name(preset);
        return gf > 0 ? cfg.with_burst(gf) : cfg;
      };
      s.kernel = [preset, gf] {
        ClusterConfig cfg = ClusterConfig::by_name(preset);
        if (gf > 0) cfg = cfg.with_burst(gf);
        return std::make_unique<RandomProbeKernel>(probe_iters(cfg));
      };
      s.opts.verify = false;
      s.opts.max_cycles = 10'000'000;
      reg.add(std::move(s));
    }
  }
}

// ----------------------------------------------------- trace_patterns -----

struct PatternCase {
  const char* name;
  TracePattern pattern;
};

constexpr PatternCase kTracePatterns[] = {
    {"local", TracePattern::kLocal},
    {"neighbor", TracePattern::kNeighbor},
    {"uniform", TracePattern::kUniform},
    {"hotspot", TracePattern::kHotspot},
};

void print_trace_patterns(const ResultSet& rs) {
  std::printf(
      "\n=== Synthetic traffic patterns on MP64Spatz4 (trace replay, 64 "
      "accesses/hart) ===\n");
  TableWriter tw({"pattern", "base BW [B/cyc/core]", "GF4 BW [B/cyc/core]",
                  "burst gain", "base cycles", "GF4 cycles"});
  for (const PatternCase& pc : kTracePatterns) {
    const KernelMetrics& b = rs.metrics(std::string(pc.name) + "/base");
    const KernelMetrics& g = rs.metrics(std::string(pc.name) + "/gf4");
    tw.add_row({pc.name, fmt(b.bw_per_core), fmt(g.bw_per_core),
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

void register_trace_patterns(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "trace_patterns";
  suite.description =
      "Synthetic traffic study: local/neighbor/uniform/hotspot trace replay "
      "on MP64Spatz4, baseline vs GF4";
  suite.print = print_trace_patterns;
  reg.add_suite(std::move(suite));

  for (const PatternCase& pc : kTracePatterns) {
    for (const bool burst : {false, true}) {
      ScenarioSpec s;
      s.name = std::string("trace_patterns/") + pc.name + (burst ? "/gf4" : "/base");
      s.config = [burst] {
        ClusterConfig cfg = ClusterConfig::mp64spatz4();
        return burst ? cfg.with_burst(4) : cfg;
      };
      s.kernel = [pattern = pc.pattern, burst] {
        ClusterConfig cfg = ClusterConfig::mp64spatz4();
        if (burst) cfg = cfg.with_burst(4);
        TraceConfig tc;
        tc.pattern = pattern;
        tc.entries_per_hart = 64;
        tc.seed = 31;
        return std::make_unique<TraceReplayKernel>(synthetic_trace(cfg, tc));
      };
      s.opts.verify = false;
      s.opts.max_cycles = 20'000'000;
      reg.add(std::move(s));
    }
  }
}

// ----------------------------------------------------------- explorer -----

void register_explorer(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "explorer";
  suite.description =
      "Bandwidth explorer: per-preset hierarchical-average bandwidth under "
      "uniform / remote-only / local-only probe traffic (interactive study)";
  suite.emit_by_default = false;
  reg.add_suite(std::move(suite));

  const struct {
    const char* name;
    RandomProbeKernel::Pattern pattern;
  } patterns[] = {
      {"uniform", RandomProbeKernel::Pattern::kUniform},
      {"remote", RandomProbeKernel::Pattern::kRemoteOnly},
      {"local", RandomProbeKernel::Pattern::kLocalOnly},
  };
  for (const std::string& preset : testbed_presets()) {
    // GF8 rides along for parity with the ablation_gf sweep (and the
    // bandwidth_explorer CLI, which forwards its [gf] argument here).
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      for (const auto& p : patterns) {
        ScenarioSpec s;
        s.name = "explorer/" + preset + "/" + (gf == 0 ? "baseline" : "gf" + std::to_string(gf)) +
                 "/" + p.name;
        s.config = [preset, gf] {
          ClusterConfig cfg = ClusterConfig::by_name(preset);
          return gf > 0 ? cfg.with_burst(gf) : cfg;
        };
        s.kernel = [preset, pattern = p.pattern] {
          const ClusterConfig cfg = ClusterConfig::by_name(preset);
          return std::make_unique<RandomProbeKernel>(probe_iters(cfg), pattern);
        };
        s.opts.verify = false;
        s.opts.max_cycles = 5'000'000;
        reg.add(std::move(s));
      }
    }
  }
}

// ------------------------------------------------------------ scaling -----

/// A MemPool-style configuration with `tiles` tiles of 4 FPUs each,
/// grouped 16 tiles per group above 16 tiles (the MP64Spatz4 pattern).
ClusterConfig scaled_config(unsigned tiles) {
  ClusterConfig c = ClusterConfig::mp4spatz4();
  c.name = "mp" + std::to_string(tiles) + "spatz4";
  c.num_tiles = tiles;
  if (tiles <= 16) {
    c.level_sizes = {tiles};
    c.level_latency = {{1, 1}};
    if (tiles > 1) {
      c.level_sizes = {1, tiles};
      c.level_latency = {{1, 1}, {1, 1}};
    }
  } else {
    c.level_sizes = {16, tiles / 16};
    c.level_latency = {{1, 1}, {2, 2}};
  }
  return c;
}

constexpr unsigned kScalingTiles[] = {4u, 16u, 32u, 64u, 128u};

void print_scaling(const ResultSet& rs) {
  std::printf("Scaling study: DotP, 1024 elements per core, baseline vs GF4\n\n");
  std::printf("%8s %6s | %21s | %21s | %s\n", "", "", "baseline", "GF4 burst", "");
  std::printf("%8s %6s | %10s %10s | %10s %10s | %s\n", "tiles", "FPUs", "BW/core",
              "util", "BW/core", "util", "speedup");
  for (unsigned tiles : kScalingTiles) {
    const ClusterConfig base_cfg = scaled_config(tiles);
    const ClusterConfig gf4_cfg = base_cfg.with_burst(4);
    // Split concatenation sidesteps a GCC-12 -Wrestrict false positive on
    // chained operator+ over std::to_string temporaries.
    std::string prefix = "t";
    prefix += std::to_string(tiles);
    const KernelMetrics& base = rs.metrics(prefix + "/baseline");
    const KernelMetrics& gf4 = rs.metrics(prefix + "/gf4");
    std::printf("%8u %6u | %10.2f %9.1f%% | %10.2f %9.1f%% | %.2fx\n", tiles,
                base_cfg.num_fpus(), base.bw_per_core,
                100.0 * base.bw_per_core / base_cfg.vlsu_peak_bw(), gf4.bw_per_core,
                100.0 * gf4.bw_per_core / gf4_cfg.vlsu_peak_bw(),
                static_cast<double>(base.cycles) / gf4.cycles);
  }
  std::printf(
      "\nBaseline utilization collapses with scale (more remote traffic,\n"
      "same serialized ports); GF4 holds utilization high — the paper's\n"
      "scalability argument in one sweep.\n");
}

void register_scaling(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "scaling";
  suite.description =
      "Scaling study: DotP with a constant per-core working set on 4 -> 128 "
      "tiles (16 -> 1024 FPUs), baseline vs GF4 (interactive study)";
  suite.emit_by_default = false;
  suite.print = print_scaling;
  reg.add_suite(std::move(suite));

  for (unsigned tiles : kScalingTiles) {
    for (const bool burst : {false, true}) {
      ScenarioSpec s;
      s.name = "scaling/t" + std::to_string(tiles) + (burst ? "/gf4" : "/baseline");
      s.config = [tiles, burst] {
        const ClusterConfig cfg = scaled_config(tiles);
        return burst ? cfg.with_burst(4) : cfg;
      };
      s.kernel = [tiles] {
        return std::make_unique<DotpKernel>(1024 * scaled_config(tiles).num_cores());
      };
      s.opts.max_cycles = 20'000'000;
      reg.add(std::move(s));
    }
  }
}

}  // namespace

void register_extensions(ScenarioRegistry& reg) {
  register_ext_kernels(reg);
  register_pareto(reg);
  register_trace_patterns(reg);
  register_explorer(reg);
  register_scaling(reg);
}

}  // namespace builtin
}  // namespace tcdm::scenario
