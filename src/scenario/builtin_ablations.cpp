// Builtin ablation suites: burst-length/pattern sensitivity, grouping-
// factor sweep, ROB depth, store bursts and the strided-burst extension.
// All sweeps and sizes match the original per-binary benches.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/analytics/bandwidth_model.hpp"
#include "src/analytics/report.hpp"
#include "src/scenario/builtin_suites.hpp"

namespace tcdm::scenario {
namespace builtin {
namespace {

// ------------------------------------------------------ ablation_burst ----

void print_ablation_burst(const ResultSet& rs) {
  std::printf("\n=== Ablation: burst length cap (MP4Spatz4-GF4 random probe) ===\n");
  TableWriter tw({"max burst len", "BW [B/cyc/core]", "vs full-K bursts"});
  const double full = rs.metrics("maxlen4").bw_per_core;
  for (unsigned cap : {2u, 3u, 4u}) {
    const KernelMetrics& r = rs.metrics("maxlen" + std::to_string(cap));
    tw.add_row({std::to_string(cap), fmt(r.bw_per_core), delta(r.bw_per_core / full - 1.0)});
  }
  tw.print(std::cout);

  std::printf("\n=== Ablation: burst-eligible pattern (memcpy: unit loads, narrow stores) ===\n");
  TableWriter tm({"config", "BW [B/cyc/core]", "cycles"});
  const KernelMetrics& mb = rs.metrics("memcpy/baseline");
  const KernelMetrics& mg = rs.metrics("memcpy/gf4");
  tm.add_row({"baseline", fmt(mb.bw_per_core), std::to_string(mb.cycles)});
  tm.add_row({"gf4", fmt(mg.bw_per_core), std::to_string(mg.cycles)});
  tm.print(std::cout);
  std::printf("memcpy gains come only from the load half: stores never burst\n"
              "(paper bursts loads only), capping the end-to-end speedup at ~2x\n"
              "even with GF4 (measured %s).\n",
              delta(static_cast<double>(mb.cycles) / mg.cycles - 1.0).c_str());
}

constexpr const char* kAblationBurst = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "ablation_burst",
  "description": "Ablation: max burst length cap (MP4Spatz4-GF4 random probe) and burst-eligible vs ineligible access patterns (memcpy baseline vs GF4)",
  "scenarios": [
    {
      "name": "maxlen{cap}",
      "sweep": {"cap": [2, 3, 4]},
      "config": {"preset": "mp4spatz4", "burst": {"gf": 4, "max_burst_len": "{cap}"}},
      "kernel": {"kind": "random_probe", "iters": 256},
      "options": {"verify": false, "max_cycles": 10000000}
    },
    {
      "name": "memcpy/{variant.label}",
      "sweep": {"variant": [{"label": "baseline", "gf": 0}, {"label": "gf4", "gf": 4}]},
      "config": {"preset": "mp4spatz4", "burst": {"gf": "{variant.gf}"}},
      "kernel": {"kind": "memcpy", "n": 4096},
      "options": {"max_cycles": 10000000}
    }
  ]
})json";

// --------------------------------------------------------- ablation_gf ----

void print_ablation_gf(const ResultSet& rs) {
  std::printf("\n=== Ablation: grouping factor sweep on MP64Spatz4 (K = 4) ===\n");
  TableWriter tw({"GF", "model BW [B/cyc]", "probe BW [B/cyc]", "probe util",
                  "dotp GFLOPS@ss", "dotp speedup"});
  const ClusterConfig cfg = ClusterConfig::mp64spatz4();
  const double dotp0 = rs.metrics("dotp/gf0").gflops_ss;
  for (unsigned gf : {0u, 2u, 4u, 8u}) {
    const unsigned eff = gf == 0 ? 1 : gf;
    const KernelMetrics& p = rs.metrics("probe/gf" + std::to_string(gf));
    const KernelMetrics& d = rs.metrics("dotp/gf" + std::to_string(gf));
    tw.add_row({gf == 0 ? "base" : std::to_string(gf),
                fmt(model::hier_avg_bw(cfg.num_cores(), cfg.vlsu_ports, eff)),
                fmt(p.bw_per_core), pct(p.bw_per_core / cfg.vlsu_peak_bw()),
                fmt(d.gflops_ss), delta(d.gflops_ss / dotp0 - 1.0)});
  }
  tw.print(std::cout);
  std::printf("GF8 == GF4 by eq. (3): a burst never exceeds K = 4 words, so wider\n"
              "response channels cannot carry more than one burst's words per beat.\n");
}

constexpr const char* kAblationGf = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "ablation_gf",
  "description": "Ablation: grouping-factor sweep beyond the paper's GF2/GF4 on MP64Spatz4 — analytical saturation at GF == K and its simulated track",
  "scenarios": [
    {
      "name": "probe/gf{gf}",
      "sweep": {"gf": [0, 2, 4, 8]},
      "config": {"preset": "mp64spatz4", "burst": {"gf": "{gf}"}},
      "kernel": {"kind": "random_probe", "iters": 128},
      "options": {"verify": false, "max_cycles": 10000000}
    },
    {
      "name": "dotp/gf{gf}",
      "sweep": {"gf": [0, 2, 4, 8]},
      "config": {"preset": "mp64spatz4", "burst": {"gf": "{gf}"}},
      "kernel": {"kind": "dotp", "n": 65536},
      "options": {"max_cycles": 10000000}
    }
  ]
})json";

// -------------------------------------------------------- ablation_rob ----

void print_ablation_rob(const ResultSet& rs) {
  std::printf("\n=== Ablation: ROB depth per VLSU port (MP64Spatz4 random probe) ===\n");
  TableWriter tw({"ROB depth/port", "baseline BW [B/cyc]", "GF4 BW [B/cyc]"});
  for (unsigned rob : {4u, 8u, 16u, 32u}) {
    tw.add_row({std::to_string(rob),
                fmt(rs.metrics("rob" + std::to_string(rob) + "/gf0").bw_per_core),
                fmt(rs.metrics("rob" + std::to_string(rob) + "/gf4").bw_per_core)});
  }
  tw.print(std::cout);
  std::printf("The GF4 configuration needs more outstanding words to keep its 4x\n"
              "response bandwidth busy — the reason the paper doubles the ROB.\n");
}

// The burst block doubles the ROB depth (paper §III-A), so the GF4
// template gives the pre-burst depth: half the depth in the name.
constexpr const char* kAblationRob = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "ablation_rob",
  "description": "Ablation: per-port ROB depth sweep (latency tolerance) for baseline and GF4 on MP64Spatz4",
  "scenarios": [
    {
      "name": "rob{rob}/gf0",
      "sweep": {"rob": [4, 8, 16, 32]},
      "config": {"preset": "mp64spatz4", "rob_depth": "{rob}"},
      "kernel": {"kind": "random_probe", "iters": 128},
      "options": {"verify": false, "max_cycles": 10000000}
    },
    {
      "name": "rob{rob.depth}/gf4",
      "sweep": {"rob": [{"depth": 4, "pre_burst": 2}, {"depth": 8, "pre_burst": 4},
                        {"depth": 16, "pre_burst": 8}, {"depth": 32, "pre_burst": 16}]},
      "config": {"preset": "mp64spatz4", "rob_depth": "{rob.pre_burst}",
                 "burst": {"gf": 4}},
      "kernel": {"kind": "random_probe", "iters": 128},
      "options": {"verify": false, "max_cycles": 10000000}
    }
  ]
})json";

// ------------------------------------------------------ ablation_store ----

void print_ablation_store(const ResultSet& rs) {
  std::printf("\n=== Ablation: store bursts on MP64Spatz4 (memcpy n=%s, transpose %s) ===\n",
              rs.metrics("memcpy/st0").size.c_str(), rs.metrics("transpose/st0").size.c_str());
  TableWriter tw({"config", "memcpy [cyc]", "vs GF4", "transpose [cyc]", "vs GF4"});
  const double m0 = static_cast<double>(rs.metrics("memcpy/st0").cycles);
  const double t0 = static_cast<double>(rs.metrics("transpose/st0").cycles);
  const char* label[] = {"GF4 (paper, loads only)", "GF4 + store bursts, 1-word req ch.",
                         "GF4 + store bursts, 2-word req ch.",
                         "GF4 + store bursts, 4-word req ch."};
  const unsigned cfgs[] = {0u, 1u, 2u, 4u};
  for (unsigned i = 0; i < 4; ++i) {
    const KernelMetrics& m = rs.metrics("memcpy/st" + std::to_string(cfgs[i]));
    const KernelMetrics& t = rs.metrics("transpose/st" + std::to_string(cfgs[i]));
    tw.add_row({label[i], std::to_string(m.cycles), delta(m0 / m.cycles - 1.0),
                std::to_string(t.cycles), delta(t0 / t.cycles - 1.0)});
  }
  tw.print(std::cout);
  std::printf(
      "Over the unmodified request channel a store burst's payload still\n"
      "streams word by word; the residual gain comes from occupying one\n"
      "request-FIFO entry per burst instead of per word (RTL with per-word\n"
      "buffering would see close to 0%%). The full win requires widening\n"
      "the request data field — the same routing cost the paper spent on\n"
      "the response side instead, where loads benefit every kernel and no\n"
      "extra payload buffering is needed.\n"
      "Transpose's strided stores never coalesce in any configuration.\n");
}

constexpr const char* kAblationStore = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "ablation_store",
  "description": "Ablation: store-burst extension on MP64Spatz4-GF4 — narrow vs widened request channel, unit-stride (memcpy) vs strided (transpose) stores",
  "scenarios": [
    {
      "name": "{kernel.label}/{variant.label}",
      "sweep": {
        "kernel": [{"label": "memcpy", "spec": {"kind": "memcpy", "n": 16384}},
                   {"label": "transpose", "spec": {"kind": "transpose", "n": 128}}],
        "variant": [
          {"label": "st0", "burst": {"gf": 4}},
          {"label": "st1", "burst": {"gf": 4, "store_req_gf": 1}},
          {"label": "st2", "burst": {"gf": 4, "store_req_gf": 2}},
          {"label": "st4", "burst": {"gf": 4, "store_req_gf": 4}}
        ]
      },
      "config": {"preset": "mp64spatz4", "burst": "{variant.burst}"},
      "kernel": "{kernel.spec}",
      "options": {"max_cycles": 20000000}
    }
  ]
})json";

// ----------------------------------------------------- ablation_stride ----

void print_ablation_stride(const ResultSet& rs) {
  const std::string& size = rs.metrics("s1/base").size;  // "<elements>s<stride>"
  std::printf(
      "\n=== Ablation: strided-burst extension on MP64Spatz4 "
      "(strided copy, %s elements, banks/tile = 4) ===\n",
      size.substr(0, size.find('s')).c_str());
  TableWriter tw({"stride [words]", "baseline [cyc]", "GF4 [cyc]", "GF4+strided [cyc]",
                  "ext vs GF4", "ext vs baseline"});
  for (unsigned stride : {1u, 2u, 3u, 4u, 8u}) {
    // Split concatenation sidesteps a GCC-12 -Wrestrict false positive on
    // chained operator+ over std::to_string temporaries.
    std::string prefix = "s";
    prefix += std::to_string(stride);
    const KernelMetrics& b = rs.metrics(prefix + "/base");
    const KernelMetrics& g = rs.metrics(prefix + "/gf4");
    const KernelMetrics& e = rs.metrics(prefix + "/gf4sb");
    tw.add_row({std::to_string(stride), std::to_string(b.cycles),
                std::to_string(g.cycles), std::to_string(e.cycles),
                delta(static_cast<double>(g.cycles) / e.cycles - 1.0),
                delta(static_cast<double>(b.cycles) / e.cycles - 1.0)});
  }
  tw.print(std::cout);
  std::printf(
      "The paper's design keys on the VLE opcode, so vlse32 traffic never\n"
      "bursts in plain GF4 (baseline == GF4 here). The extension coalesces\n"
      "stride 1 (a vle32 in disguise) fully and strides 2..3 into shorter\n"
      "runs; at stride >= banks/tile = 4 every element maps to a different\n"
      "tile and the extension correctly degrades to narrow behaviour.\n");
}

constexpr const char* kAblationStride = R"json({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "ablation_stride",
  "description": "Ablation: strided-burst extension (future work beyond paper §II-C) — strided-copy stride sweep on MP64Spatz4, baseline / GF4 / GF4+strided",
  "scenarios": [
    {
      "name": "s{stride}/{variant.label}",
      "sweep": {
        "stride": [1, 2, 3, 4, 8],
        "variant": [
          {"label": "base", "burst": {"gf": 0}},
          {"label": "gf4", "burst": {"gf": 4}},
          {"label": "gf4sb", "burst": {"gf": 4, "strided": true}}
        ]
      },
      "config": {"preset": "mp64spatz4", "burst": "{variant.burst}"},
      "kernel": {"kind": "strided_copy", "n": 8192, "stride_words": "{stride}"},
      "options": {"max_cycles": 20000000}
    }
  ]
})json";

}  // namespace

std::vector<Suite> ablation_suites() {
  return {
      {.document = kAblationBurst, .print = print_ablation_burst},
      {.document = kAblationGf, .print = print_ablation_gf},
      {.document = kAblationRob, .print = print_ablation_rob},
      {.document = kAblationStore, .print = print_ablation_store},
      {.document = kAblationStride, .print = print_ablation_stride},
  };
}

}  // namespace builtin
}  // namespace tcdm::scenario
