// Builtin suites for the paper's headline artifacts: Table I (bandwidth),
// Table II (kernels + energy efficiency), Fig. 3 (rooflines) and Fig. 5
// (area/power breakdowns). Configurations, kernel sizes and runner options
// are the ones the original per-binary sweeps used, so the recorded
// baselines carry over unchanged.
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/analytics/area_model.hpp"
#include "src/analytics/bandwidth_model.hpp"
#include "src/analytics/report.hpp"
#include "src/analytics/roofline.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/fft.hpp"
#include "src/kernels/matmul.hpp"
#include "src/kernels/probes.hpp"
#include "src/scenario/builtin.hpp"

namespace tcdm::scenario {

void register_builtin() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::instance();
    builtin::register_tables(reg);
    builtin::register_ablations(reg);
    builtin::register_extensions(reg);
    builtin::register_system(reg);
  });
}

namespace builtin {

const std::vector<std::string>& testbed_presets() {
  static const std::vector<std::string> p = {"mp4spatz4", "mp64spatz4", "mp128spatz8"};
  return p;
}

unsigned probe_iters(const ClusterConfig& cfg) {
  return cfg.num_cores() >= 128 ? 64 : 128;
}

namespace {

const std::vector<std::string>& presets() { return testbed_presets(); }

std::string variant_name(unsigned gf) {
  return gf == 0 ? "baseline" : "gf" + std::to_string(gf);
}

ClusterConfig preset_config(const std::string& preset, unsigned gf) {
  ClusterConfig cfg = ClusterConfig::by_name(preset);
  return gf == 0 ? cfg : cfg.with_burst(gf);
}

/// The paper's burst design point per testbed: GF4, except GF2 on the
/// 1024-FPU cluster (routing congestion, §III-B).
unsigned design_gf(const std::string& preset) {
  return preset == "mp128spatz8" ? 2 : 4;
}

/// Table II / Fig. 3 kernel points (problem sizes scale with the cluster).
std::unique_ptr<Kernel> make_point_kernel(const std::string& preset,
                                          const std::string& which) {
  if (preset == "mp4spatz4") {
    if (which == "dotp") return std::make_unique<DotpKernel>(4096);
    if (which == "fft") return std::make_unique<FftKernel>(1, 512);
    if (which == "matmul-s") return std::make_unique<MatmulKernel>(16, 4);
    if (which == "matmul-l") return std::make_unique<MatmulKernel>(64, 8);
  } else if (preset == "mp64spatz4") {
    if (which == "dotp") return std::make_unique<DotpKernel>(65536);
    if (which == "fft") return std::make_unique<FftKernel>(4, 2048);
    if (which == "matmul-s") return std::make_unique<MatmulKernel>(64, 4);
    if (which == "matmul-l") return std::make_unique<MatmulKernel>(256, 8);
  } else if (preset == "mp128spatz8") {
    if (which == "dotp") return std::make_unique<DotpKernel>(131072);
    if (which == "fft") return std::make_unique<FftKernel>(8, 4096);
    if (which == "matmul-s") return std::make_unique<MatmulKernel>(128, 4);
    if (which == "matmul-l") return std::make_unique<MatmulKernel>(256, 8);
  }
  throw std::invalid_argument("unknown kernel point: " + preset + "/" + which);
}

const std::vector<std::string>& point_kernels() {
  static const std::vector<std::string> k = {"dotp", "fft", "matmul-s", "matmul-l"};
  return k;
}

// ------------------------------------------------------------- Table I ----

void print_table1(const ResultSet& rs) {
  // Paper Table I reference values (per-VLSU B/cycle).
  struct PaperCol {
    double base, gf2, gf4;
  };
  const std::map<std::string, PaperCol> paper = {
      {"mp4spatz4", {7.00, 10.00, 16.00}},
      {"mp64spatz4", {4.18, 8.13, 16.00}},
      {"mp128spatz8", {4.22, 8.19, 16.13}},
  };

  std::printf("\n=== Table I: calculated memory bandwidth vs simulated random probe ===\n");
  TableWriter tw({"config", "row", "peak", "baseline", "2xRsp (GF2)", "4xRsp (GF4)"});
  for (const std::string& preset : presets()) {
    const ClusterConfig cfg = ClusterConfig::by_name(preset);
    const auto col = model::table1_column(cfg);
    tw.add_row({preset, "model BW [B/cyc]", fmt(col.peak), fmt(col.baseline_bw),
                fmt(col.gf2_bw), fmt(col.gf4_bw)});
    tw.add_row({"", "model util", "", pct(col.baseline_util), pct(col.gf2_util),
                pct(col.gf4_util)});
    tw.add_row({"", "model improvement", "", "-", delta(col.gf2_improvement),
                delta(col.gf4_improvement)});
    tw.add_row({"", "paper BW [B/cyc]", "", fmt(paper.at(preset).base),
                fmt(paper.at(preset).gf2), fmt(paper.at(preset).gf4)});
    const KernelMetrics& r0 = rs.metrics(preset + "/baseline");
    const KernelMetrics& r2 = rs.metrics(preset + "/gf2");
    const KernelMetrics& r4 = rs.metrics(preset + "/gf4");
    tw.add_row({"", "simulated BW [B/cyc]", "", fmt(r0.bw_per_core), fmt(r2.bw_per_core),
                fmt(r4.bw_per_core)});
    tw.add_row({"", "simulated util", "", pct(r0.bw_per_core / col.peak),
                pct(r2.bw_per_core / col.peak), pct(r4.bw_per_core / col.peak)});
    tw.add_row({"", "simulated improvement", "", "-",
                delta(r2.bw_per_core / r0.bw_per_core - 1.0),
                delta(r4.bw_per_core / r0.bw_per_core - 1.0)});
    tw.add_separator();
  }
  tw.print(std::cout);
  std::printf(
      "Model rows reproduce the paper's closed forms (eqs. 1-5) exactly;\n"
      "simulated rows add real contention (bank conflicts, arbitration,\n"
      "finite ROBs), landing below the model as the paper's dashed\n"
      "hierarchical-average lines do.\n");
}

void register_table1(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "table1";
  suite.description =
      "Table I: closed-form bandwidth model (eqs. 1-5) and simulated "
      "random-probe bandwidth, per-VLSU B/cycle";
  suite.emit_model = [](metrics::MetricsDoc& doc) {
    for (const std::string& p : presets()) {
      const auto col = model::table1_column(ClusterConfig::by_name(p));
      doc.add(p + "/model/peak", col.peak, metrics::kModelRelTol);
      doc.add(p + "/model/baseline_bw", col.baseline_bw, metrics::kModelRelTol);
      doc.add(p + "/model/gf2_bw", col.gf2_bw, metrics::kModelRelTol);
      doc.add(p + "/model/gf4_bw", col.gf4_bw, metrics::kModelRelTol);
      doc.add(p + "/model/gf2_improvement", col.gf2_improvement, metrics::kModelRelTol);
      doc.add(p + "/model/gf4_improvement", col.gf4_improvement, metrics::kModelRelTol);
    }
  };
  suite.print = print_table1;
  reg.add_suite(std::move(suite));

  for (const std::string& preset : presets()) {
    for (unsigned gf : {0u, 2u, 4u}) {
      ScenarioSpec s;
      s.name = "table1/" + preset + "/" + variant_name(gf);
      s.config = [preset, gf] { return preset_config(preset, gf); };
      s.kernel = [preset, gf] {
        return std::make_unique<RandomProbeKernel>(probe_iters(preset_config(preset, gf)));
      };
      s.opts.verify = false;
      s.opts.max_cycles = 3'000'000;
      s.emit = [rel = preset + "/" + variant_name(gf)](const ScenarioResult& r,
                                                       metrics::MetricsDoc& doc) {
        doc.add(rel + "/sim/bw_per_core", r.metrics.bw_per_core, metrics::kSimRelTol);
        doc.add(rel + "/sim/cycles", static_cast<double>(r.metrics.cycles),
                metrics::kSimRelTol);
      };
      reg.add(std::move(s));
    }
  }
}

// ------------------------------------------------------------ Table II ----

void print_table2(const ResultSet& rs) {
  const std::vector<std::pair<std::string, unsigned>> configs = {
      {"mp4spatz4", 4u}, {"mp64spatz4", 4u}, {"mp128spatz8", 2u}};

  std::printf("\n=== Table II: kernel performance and energy efficiency ===\n");
  TableWriter tw({"config", "kernel", "size", "AI [F/B]", "FPU util", "GFLOPS@ss",
                  "GFLOPS@tt", "Power@tt [W]", "GFLOPS/W", "eff. vs base", "ok"});
  for (const auto& [preset, gf] : configs) {
    for (const std::string& k : point_kernels()) {
      const std::string kb = preset + "/baseline/" + k;
      const std::string kg = preset + "/gf" + std::to_string(gf) + "/" + k;
      const KernelMetrics& mb = rs.metrics(kb);
      const KernelMetrics& mg = rs.metrics(kg);
      const PowerBreakdown& pb = rs.power(kb);
      const PowerBreakdown& pg = rs.power(kg);
      const double eff_b = energy_efficiency(mb.gflops_tt, pb);
      const double eff_g = energy_efficiency(mg.gflops_tt, pg);
      tw.add_row({preset + " base", mb.kernel, mb.size, fmt(mb.arithmetic_intensity),
                  pct(mb.fpu_util), fmt(mb.gflops_ss), fmt(mb.gflops_tt),
                  fmt(pb.total()), fmt(eff_b), "-", mb.verified ? "OK" : "FAIL"});
      tw.add_row({preset + " GF" + std::to_string(gf), mg.kernel, mg.size,
                  fmt(mg.arithmetic_intensity), pct(mg.fpu_util), fmt(mg.gflops_ss),
                  fmt(mg.gflops_tt), fmt(pg.total()), fmt(eff_g),
                  delta(eff_g / eff_b - 1.0), mg.verified ? "OK" : "FAIL"});
    }
    tw.add_separator();
  }
  tw.print(std::cout);
  std::printf("Performance improvements (GF vs baseline, simulated):\n");
  for (const auto& [preset, gf] : configs) {
    for (const std::string& k : point_kernels()) {
      const KernelMetrics& mb = rs.metrics(preset + "/baseline/" + k);
      const KernelMetrics& mg = rs.metrics(preset + "/gf" + std::to_string(gf) + "/" + k);
      if (mb.cycles == 0) continue;
      std::printf("  %-12s %-9s %s\n", preset.c_str(), k.c_str(),
                  delta(mg.flops_per_cycle / mb.flops_per_cycle - 1.0).c_str());
    }
  }
  std::printf(
      "\nPaper reference (Table II): dotp +106%%/+176%%/+80%%, fft +41%%/+64%%/+47%%,\n"
      "matmul small +2%%/+35%%/+62%%, matmul large ~0%%/+2%%/+12%% across\n"
      "MP4Spatz4/MP64Spatz4/MP128Spatz8 respectively.\n");
}

void register_table2(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "table2";
  suite.description =
      "Table II: kernel performance and energy efficiency, baseline vs TCDM "
      "Burst (GF4 on MP4/MP64, GF2 on MP128)";
  suite.print = print_table2;
  reg.add_suite(std::move(suite));

  for (const std::string& preset : presets()) {
    const unsigned design = design_gf(preset);
    for (const std::string& kernel : point_kernels()) {
      for (unsigned gf : {0u, design}) {
        ScenarioSpec s;
        const std::string rel = preset + "/" + variant_name(gf) + "/" + kernel;
        s.name = "table2/" + rel;
        s.config = [preset, gf] { return preset_config(preset, gf); };
        s.kernel = [preset, kernel] { return make_point_kernel(preset, kernel); };
        s.opts.max_cycles = 50'000'000;
        s.emit = [rel](const ScenarioResult& r, metrics::MetricsDoc& doc) {
          doc.add_kernel_metrics(rel, r.metrics);
          doc.add(rel + "/gflops_tt", r.metrics.gflops_tt, metrics::kSimRelTol);
          doc.add(rel + "/power_w", r.power.total(), metrics::kSimRelTol);
          doc.add(rel + "/gflops_per_w", energy_efficiency(r.metrics.gflops_tt, r.power),
                  metrics::kSimRelTol);
        };
        reg.add(std::move(s));
      }
    }
  }
}

// -------------------------------------------------------------- Fig. 3 ----

void print_fig3(const ResultSet& rs) {
  for (const std::string& preset : presets()) {
    const ClusterConfig cfg = ClusterConfig::by_name(preset);
    const unsigned gf = design_gf(preset);
    const std::string gfv = variant_name(gf);
    const KernelMetrics& probe_base = rs.metrics(preset + "/probe/baseline");
    const KernelMetrics& probe_gf = rs.metrics(preset + "/probe/" + gfv);

    std::printf("\n=== Fig. 3 roofline: %s (ss corner %.0f MHz) ===\n", preset.c_str(),
                cfg.freq_ss_mhz);
    const Roofline rl_base = make_roofline(cfg, probe_base.bw_bytes_per_cycle);
    const Roofline rl_gf = make_roofline(cfg, probe_gf.bw_bytes_per_cycle);
    std::printf("peak %.1f GFLOPS | ideal BW %.1f GB/s | hier-avg BW: baseline %.1f GB/s "
                "(dashed), GF%u %.1f GB/s (dashed)\n",
                rl_base.peak_gflops, rl_base.ideal_bw_gbps, rl_base.measured_bw_gbps, gf,
                rl_gf.measured_bw_gbps);

    TableWriter tw({"kernel", "AI [F/B]", "GFLOPS base", "GFLOPS GF", "speedup",
                    "roofline bound (meas. BW)"});
    std::vector<RooflineSample> samples;
    for (const std::string& which : point_kernels()) {
      const KernelMetrics& mb = rs.metrics(preset + "/" + which + "/baseline");
      const KernelMetrics& mg = rs.metrics(preset + "/" + which + "/" + gfv);
      tw.add_row({which, fmt(mb.arithmetic_intensity), fmt(mb.gflops_ss),
                  fmt(mg.gflops_ss), delta(mg.gflops_ss / mb.gflops_ss - 1.0),
                  fmt(rl_gf.attainable_measured(mg.arithmetic_intensity))});
      samples.push_back({which + "-base", mb.arithmetic_intensity, mb.gflops_ss});
      samples.push_back({which + "-gf" + std::to_string(gf), mg.arithmetic_intensity,
                         mg.gflops_ss});
    }
    tw.print(std::cout);
    std::printf("--- CSV (plot with any CSV grapher) ---\n%s",
                roofline_csv(rl_gf, samples).c_str());
  }
}

void register_fig3(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "fig3_roofline";
  suite.description =
      "Fig. 3: roofline roofs (FPU peak, ideal and measured hierarchical-"
      "average bandwidth) and kernel sample points, baseline vs burst";
  suite.emit_model = [](metrics::MetricsDoc& doc) {
    for (const std::string& p : presets()) {
      // The compute and ideal-bandwidth roofs depend only on the preset;
      // only the measured (dashed) roof differs between baseline and burst.
      const Roofline roofs = make_roofline(ClusterConfig::by_name(p));
      doc.add(p + "/roofline/peak_gflops", roofs.peak_gflops, metrics::kModelRelTol);
      doc.add(p + "/roofline/ideal_bw_gbps", roofs.ideal_bw_gbps, metrics::kModelRelTol);
    }
  };
  suite.print = print_fig3;
  reg.add_suite(std::move(suite));

  const std::vector<std::string> points = {"probe", "dotp", "fft", "matmul-s",
                                           "matmul-l"};
  for (const std::string& preset : presets()) {
    for (const std::string& which : points) {
      for (unsigned gf : {0u, design_gf(preset)}) {
        ScenarioSpec s;
        const std::string variant = variant_name(gf);
        s.name = "fig3_roofline/" + preset + "/" + which + "/" + variant;
        s.config = [preset, gf] { return preset_config(preset, gf); };
        s.opts.max_cycles = 50'000'000;
        if (which == "probe") {
          s.kernel = [preset, gf] {
            return std::make_unique<RandomProbeKernel>(
                probe_iters(preset_config(preset, gf)));
          };
          s.opts.verify = false;
          s.emit = [preset, variant](const ScenarioResult& r, metrics::MetricsDoc& doc) {
            const Roofline rl = make_roofline(ClusterConfig::by_name(preset),
                                              r.metrics.bw_bytes_per_cycle);
            doc.add(preset + "/roofline/" + variant + "/measured_bw_gbps",
                    rl.measured_bw_gbps, metrics::kSimRelTol);
          };
        } else {
          s.kernel = [preset, which] { return make_point_kernel(preset, which); };
          s.emit = [rel = preset + "/" + which + "/" + variant](
                       const ScenarioResult& r, metrics::MetricsDoc& doc) {
            doc.add(rel + "/gflops_ss", r.metrics.gflops_ss, metrics::kSimRelTol);
            doc.add(rel + "/arithmetic_intensity", r.metrics.arithmetic_intensity,
                    metrics::kSimRelTol);
            doc.add(rel + "/verified", r.metrics.verified ? 1.0 : 0.0,
                    metrics::kExactTol);
          };
        }
        reg.add(std::move(s));
      }
    }
  }
}

// -------------------------------------------------------------- Fig. 5 ----

void print_fig5(const ResultSet& rs) {
  const ClusterConfig base_cfg = ClusterConfig::mp64spatz4();
  const ClusterConfig gf4_cfg = base_cfg.with_burst(4);
  const AreaBreakdown ab = estimate_area(base_cfg);
  const AreaBreakdown ag = estimate_area(gf4_cfg);

  std::printf("\n=== Fig. 5 (left): logic area breakdown, MP64Spatz4 [MGE] ===\n");
  TableWriter ta({"component", "baseline", "GF4", "delta"});
  const auto row = [&](const char* name, double b, double g) {
    ta.add_row({name, fmt(b / 1e6, 3), fmt(g / 1e6, 3), delta(b > 0 ? g / b - 1.0 : 0.0)});
  };
  row("Snitch cores", ab.snitch, ag.snitch);
  row("Spatz FPUs", ab.spatz_fpu, ag.spatz_fpu);
  row("Spatz VRF", ab.spatz_vrf, ag.spatz_vrf);
  row("Spatz control", ab.spatz_misc, ag.spatz_misc);
  row("VLSU (+ROB)", ab.vlsu, ag.vlsu);
  row("Interconnect", ab.interconnect, ag.interconnect);
  ta.add_row({"Burst Mgr+Snd", fmt(ab.burst / 1e6, 3), fmt(ag.burst / 1e6, 3), "new"});
  row("Bank control", ab.banks_logic, ag.banks_logic);
  ta.add_separator();
  row("TOTAL", ab.total(), ag.total());
  ta.print(std::cout);
  std::printf("Paper: +35%% VLSU, +51%% interconnect, +1.5 MGE BM+BS, +4.5 MGE total, <8%%.\n");
  std::printf("Model: +%.0f%% VLSU, +%.0f%% interconnect, +%.2f MGE BM+BS, +%.2f MGE total, "
              "%.1f%% overall.\n",
              100.0 * (ag.vlsu / ab.vlsu - 1.0),
              100.0 * (ag.interconnect / ab.interconnect - 1.0),
              (ag.burst - ab.burst) / 1e6, (ag.total() - ab.total()) / 1e6,
              100.0 * area_overhead(ab, ag));

  const KernelMetrics& mb = rs.metrics("matmul256/baseline");
  const KernelMetrics& mg = rs.metrics("matmul256/gf4");
  const PowerBreakdown& pb = rs.power("matmul256/baseline");
  const PowerBreakdown& pg = rs.power("matmul256/gf4");
  std::printf("\n=== Fig. 5 (right): power breakdown, MatMul 256^3 @tt [W] ===\n");
  TableWriter tp({"component", "baseline", "GF4"});
  const auto prow = [&](const char* name, double b, double g) {
    tp.add_row({name, fmt(b, 3), fmt(g, 3)});
  };
  prow("FPUs", pb.fpu_w, pg.fpu_w);
  prow("VRF", pb.vrf_w, pg.vrf_w);
  prow("VLSU", pb.vlsu_w, pg.vlsu_w);
  prow("Snitch", pb.snitch_w, pg.snitch_w);
  prow("Interconnect", pb.icn_w, pg.icn_w);
  prow("SPM banks", pb.banks_w, pg.banks_w);
  prow("Burst Mgr+Snd", pb.burst_w, pg.burst_w);
  prow("Static+clock", pb.static_w, pg.static_w);
  tp.add_separator();
  prow("TOTAL", pb.total(), pg.total());
  tp.print(std::cout);
  std::printf("MatMul 256^3 @tt: baseline %.1f GFLOPS / %.2f W; GF4 %.1f GFLOPS / %.2f W\n"
              "(paper: 440.67 GFLOPS / 1.77 W -> 451.62 GFLOPS / 1.97 W).\n",
              mb.gflops_tt, pb.total(), mg.gflops_tt, pg.total());
}

void register_fig5(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "fig5_breakdown";
  suite.description =
      "Fig. 5: logic-area breakdown (calibrated gate-count model) and "
      "activity-based power breakdown for MP64Spatz4 GF4, MatMul 256^3 @tt";
  suite.emit_model = [](metrics::MetricsDoc& doc) {
    for (unsigned gf : {0u, 4u}) {
      const ClusterConfig cfg = preset_config("mp64spatz4", gf);
      const AreaBreakdown a = estimate_area(cfg);
      const std::string p = "area/" + variant_name(gf);
      doc.add(p + "/snitch_ge", a.snitch, metrics::kModelRelTol);
      doc.add(p + "/spatz_fpu_ge", a.spatz_fpu, metrics::kModelRelTol);
      doc.add(p + "/spatz_vrf_ge", a.spatz_vrf, metrics::kModelRelTol);
      doc.add(p + "/spatz_misc_ge", a.spatz_misc, metrics::kModelRelTol);
      doc.add(p + "/vlsu_ge", a.vlsu, metrics::kModelRelTol);
      doc.add(p + "/interconnect_ge", a.interconnect, metrics::kModelRelTol);
      doc.add(p + "/burst_ge", a.burst, metrics::kModelRelTol);
      doc.add(p + "/banks_logic_ge", a.banks_logic, metrics::kModelRelTol);
      doc.add(p + "/total_ge", a.total(), metrics::kModelRelTol);
    }
    doc.add("area/gf4_overhead",
            area_overhead(estimate_area(preset_config("mp64spatz4", 0)),
                          estimate_area(preset_config("mp64spatz4", 4))),
            metrics::kModelRelTol);
  };
  suite.print = print_fig5;
  reg.add_suite(std::move(suite));

  for (unsigned gf : {0u, 4u}) {
    ScenarioSpec s;
    const std::string rel = "matmul256/" + variant_name(gf);
    s.name = "fig5_breakdown/" + rel;
    s.config = [gf] { return preset_config("mp64spatz4", gf); };
    s.kernel = [] { return std::make_unique<MatmulKernel>(256, 8); };
    s.opts.max_cycles = 50'000'000;
    s.emit = [rel](const ScenarioResult& r, metrics::MetricsDoc& doc) {
      doc.add_kernel_metrics(rel, r.metrics);
      doc.add(rel + "/gflops_tt", r.metrics.gflops_tt, metrics::kSimRelTol);
      doc.add(rel + "/power/fpu_w", r.power.fpu_w, metrics::kSimRelTol);
      doc.add(rel + "/power/vrf_w", r.power.vrf_w, metrics::kSimRelTol);
      doc.add(rel + "/power/vlsu_w", r.power.vlsu_w, metrics::kSimRelTol);
      doc.add(rel + "/power/snitch_w", r.power.snitch_w, metrics::kSimRelTol);
      doc.add(rel + "/power/icn_w", r.power.icn_w, metrics::kSimRelTol);
      doc.add(rel + "/power/banks_w", r.power.banks_w, metrics::kSimRelTol);
      doc.add(rel + "/power/burst_w", r.power.burst_w, metrics::kSimRelTol);
      doc.add(rel + "/power/static_w", r.power.static_w, metrics::kSimRelTol);
      doc.add(rel + "/power/total_w", r.power.total(), metrics::kSimRelTol);
    };
    reg.add(std::move(s));
  }
}

}  // namespace

void register_tables(ScenarioRegistry& reg) {
  register_table1(reg);
  register_table2(reg);
  register_fig3(reg);
  register_fig5(reg);
}

}  // namespace builtin
}  // namespace tcdm::scenario
