// Seeded workload generator. Each workload is written as a tcdm-scenarios v1
// suite document — the simulator's documented input format — so the program
// under test receives only generated inputs. The scenario set of a workload
// is fixed; the seed drives kernel data and the probe and trace patterns, so
// every seed measures the same mix of work.
#include <stdexcept>

#include "driver/simbench.hpp"

namespace simbench {

using tcdm::Json;

namespace {

/// splitmix64: a small, fully specified generator, so a seed produces the
/// same suite bytes on every platform and standard library.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed, std::uint64_t stream)
      : state_(seed ^ (stream * 0xd1b54a32d192ed03ULL)) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// A kernel seed: JSON numbers hold integers exactly below 2^53.
  unsigned long long kernel_seed() { return next() >> 12; }
  /// Uniform in [0, n).
  unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }

 private:
  std::uint64_t state_;
};

Json suite_header(const std::string& suite, const std::string& description) {
  Json doc;
  doc.set("schema", "tcdm-scenarios");
  doc.set("schema_version", 1);
  doc.set("suite", suite);
  doc.set("description", description);
  doc.set("emit_by_default", false);
  return doc;
}

Json labelled(const std::string& label, Json spec) {
  Json j;
  j.set("label", label);
  j.set("spec", std::move(spec));
  return j;
}

Json kernel(const std::string& kind, std::initializer_list<std::pair<const char*, Json>> params,
            SeedStream& seeds) {
  Json k;
  k.set("kind", kind);
  for (const auto& [key, value] : params) k.set(key, value);
  k.set("seed", seeds.kernel_seed());
  return k;
}

Json max_cycles_options(unsigned max_cycles) {
  Json o;
  o.set("max_cycles", max_cycles);
  return o;
}

// ------------------------------------------------------------ table II ----

/// Table II problem sizes per testbed — the same constructor arguments as
/// make_point_kernel in src/scenario/builtin_tables.cpp.
Json table2_kernel(const std::string& preset, const std::string& which, SeedStream& seeds) {
  struct Size {
    const char* preset;
    unsigned dotp_n, fft_instances, fft_n, mms_n, mml_n;
  };
  static const Size sizes[] = {
      {"mp4spatz4", 4096, 1, 512, 16, 64},
      {"mp64spatz4", 65536, 4, 2048, 64, 256},
      {"mp128spatz8", 131072, 8, 4096, 128, 256},
  };
  for (const Size& s : sizes) {
    if (preset != s.preset) continue;
    if (which == "dotp") return kernel("dotp", {{"n", s.dotp_n}}, seeds);
    if (which == "fft") {
      return kernel("fft", {{"instances", s.fft_instances}, {"n", s.fft_n}}, seeds);
    }
    if (which == "matmul-s") return kernel("matmul", {{"n", s.mms_n}, {"row_block", 4u}}, seeds);
    if (which == "matmul-l") return kernel("matmul", {{"n", s.mml_n}, {"row_block", 8u}}, seeds);
  }
  throw std::invalid_argument("no Table II point " + preset + "/" + which);
}

// --------------------------------------------------------- sweep-small ----

/// Design sweep on 4-FPU tiles: the MP4Spatz4 preset plus off-preset 2- and
/// 8-tile flat clusters, each under the baseline, GF2, GF4, a capped burst
/// length and the store- and strided-burst extensions.
Json sweep_small_scenarios(SeedStream& seeds) {
  struct Variant {
    const char* label;
    unsigned gf, max_burst_len, store_req_gf;
    bool strided;
  };
  static const Variant variants[] = {
      {"base", 0, 0, 0, false},       {"gf2", 2, 0, 0, false},
      {"gf4", 4, 0, 0, false},        {"gf4-len2", 4, 2, 0, false},
      {"gf4-store", 4, 0, 4, false},  {"gf4-strided", 4, 0, 0, true},
  };
  Json::Array cfgs;
  for (const unsigned tiles : {2u, 4u, 8u}) {
    for (const Variant& v : variants) {
      Json burst;
      burst.set("gf", v.gf);
      if (v.max_burst_len != 0) burst.set("max_burst_len", v.max_burst_len);
      if (v.store_req_gf != 0) burst.set("store_req_gf", v.store_req_gf);
      if (v.strided) burst.set("strided", true);
      std::string label = "t";
      label += std::to_string(tiles);
      label += "-";
      label += v.label;
      Json c;
      c.set("label", label);
      c.set("tiles", tiles);
      c.set("burst", std::move(burst));
      cfgs.push_back(std::move(c));
    }
  }

  // Sizes fit the 2-tile cluster's 8192-word TCDM and split evenly over
  // 2, 4 and 8 harts. Kernel data (and the probe/trace addresses) come from
  // the seed; the same data runs on every configuration of the sweep.
  const unsigned hot_tile = seeds.below(2);  // a tile every shape has
  Json::Array kernels = {
      labelled("dotp", kernel("dotp", {{"n", 2048u}}, seeds)),
      labelled("axpy", kernel("axpy", {{"n", 2048u}, {"alpha", 1.25}}, seeds)),
      labelled("gemv", kernel("gemv", {{"m", 32u}, {"n", 64u}}, seeds)),
      labelled("conv2d", kernel("conv2d", {{"h", 18u}, {"w", 34u}}, seeds)),
      labelled("jacobi2d", kernel("jacobi2d", {{"h", 18u}, {"w", 34u}}, seeds)),
      labelled("relu", kernel("relu", {{"n", 2048u}}, seeds)),
      labelled("maxpool", kernel("maxpool2x2", {{"h", 16u}, {"w", 48u}}, seeds)),
      labelled("memcpy", kernel("memcpy", {{"n", 2048u}}, seeds)),
      labelled("transpose", kernel("transpose", {{"n", 32u}}, seeds)),
      labelled("strided_copy",
               kernel("strided_copy", {{"n", 256u}, {"stride_words", 4u}}, seeds)),
      labelled("random_probe",
               kernel("random_probe", {{"iters", 128u}, {"pattern", "uniform"}}, seeds)),
      labelled("trace_hotspot",
               kernel("trace_replay",
                      {{"pattern", "hotspot"}, {"entries_per_hart", 48u},
                       {"hotspot_tile", hot_tile}, {"write_fraction", 0.25}},
                      seeds)),
      labelled("trace_uniform",
               kernel("trace_replay",
                      {{"pattern", "uniform"}, {"entries_per_hart", 48u},
                       {"write_fraction", 0.25}},
                      seeds)),
  };

  Json sweep;
  sweep.set("cfg", std::move(cfgs));
  sweep.set("kernel", std::move(kernels));
  Json config;
  config.set("preset", "mp4spatz4");
  config.set("num_tiles", "{cfg.tiles}");
  config.set("level_sizes", Json::Array{1, "{cfg.tiles}"});
  config.set("burst", "{cfg.burst}");
  Json t;
  t.set("name", "{cfg.label}/{kernel.label}");
  t.set("sweep", std::move(sweep));
  t.set("config", std::move(config));
  t.set("kernel", "{kernel.spec}");
  t.set("options", max_cycles_options(10'000'000));
  return Json::Array{std::move(t)};
}

// ----------------------------------------------------- system-scaleout ----

/// 2, 4 and 8 MP4Spatz4 clusters under every global barrier kind, with a
/// short and a long ring-DMA exchange.
Json system_scaleout_scenarios(SeedStream& seeds) {
  Json::Array dma;
  for (const auto& [words, len] : {std::pair{512u, 8u}, std::pair{4096u, 32u}}) {
    std::string label = "w";
    label += std::to_string(words);
    label += "-b";
    label += std::to_string(len);
    Json d;
    d.set("label", label);
    d.set("words", words);
    d.set("burst_len", len);
    dma.push_back(std::move(d));
  }
  Json::Array kernels = {
      labelled("dotp", kernel("dotp", {{"n", 1024u}}, seeds)),
      labelled("axpy", kernel("axpy", {{"n", 1024u}, {"alpha", 0.75}}, seeds)),
  };
  Json sweep;
  sweep.set("barrier", Json::Array{"central", "tree", "butterfly"});
  sweep.set("clusters", Json::Array{2, 4, 8});
  sweep.set("dma", std::move(dma));
  sweep.set("kernel", std::move(kernels));

  Json system;
  system.set("name", "n{clusters}-{barrier}-{dma.label}");
  system.set("num_clusters", "{clusters}");
  system.set("barrier_kind", "{barrier}");
  system.set("dma_words", "{dma.words}");
  system.set("dma_burst_len", "{dma.burst_len}");
  Json config;
  config.set("preset", "mp4spatz4");
  config.set("burst", Json::Object{{"gf", Json(4)}});
  Json t;
  t.set("name", "{barrier}/n{clusters}/{dma.label}/{kernel.label}");
  t.set("sweep", std::move(sweep));
  t.set("config", std::move(config));
  t.set("kernel", "{kernel.spec}");
  t.set("system", std::move(system));
  t.set("options", max_cycles_options(10'000'000));
  return Json::Array{std::move(t)};
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"paper-table2",
       "the paper's 24 Table II points run serially: dense per-cycle stepping on MP4/MP64/MP128, "
       "where almost all host time is Cluster::step()",
       1},
      {"sweep-small",
       "many short mixed load/store scenarios over GF, burst length, store and strided bursts on "
       "2-8 tile clusters with 2 workers: per-scenario fixed costs",
       2},
      {"system-scaleout",
       "2-8 MP4Spatz4 clusters under System across barrier kinds and DMA sizes: event skipping, "
       "ring DMA, L2/NoC and the global barrier",
       1},
  };
  return list;
}

const WorkloadInfo* find_workload(std::string_view name) {
  for (const WorkloadInfo& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string generate_table2_suite(const std::string& suite, std::uint64_t seed, bool mp4_only) {
  SeedStream seeds(seed, 1);
  struct Testbed {
    const char* preset;
    unsigned design_gf;  // GF4, except GF2 on the 1024-FPU cluster
  };
  static const Testbed testbeds[] = {
      {"mp4spatz4", 4}, {"mp64spatz4", 4}, {"mp128spatz8", 2}};
  Json::Array scenarios;
  for (const Testbed& tb : testbeds) {
    if (mp4_only && std::string(tb.preset) != "mp4spatz4") continue;
    for (const char* which : {"dotp", "fft", "matmul-s", "matmul-l"}) {
      // Baseline and design point run the same data.
      const Json spec = table2_kernel(tb.preset, which, seeds);
      for (const unsigned gf : {0u, tb.design_gf}) {
        Json config;
        config.set("preset", tb.preset);
        if (gf != 0) config.set("burst", Json::Object{{"gf", Json(gf)}});
        Json s;
        s.set("name", std::string(tb.preset) + "/" +
                          (gf == 0 ? std::string("baseline") : "gf" + std::to_string(gf)) +
                          "/" + which);
        s.set("config", std::move(config));
        s.set("kernel", spec);
        s.set("options", max_cycles_options(50'000'000));
        scenarios.push_back(std::move(s));
      }
    }
  }
  Json doc = suite_header(suite, "Table II baseline vs TCDM Burst design points (generated)");
  doc.set("scenarios", std::move(scenarios));
  return doc.dump();
}

std::string generate_suite(const WorkloadInfo& w, std::uint64_t seed) {
  const std::string name = w.name;
  if (name == "paper-table2") return generate_table2_suite("paper_table2", seed, false);
  SeedStream seeds(seed, 2);
  Json doc = suite_header(name == "sweep-small" ? "sweep_small" : "system_scaleout", w.why);
  doc.set("scenarios", name == "sweep-small" ? sweep_small_scenarios(seeds)
                                             : system_scaleout_scenarios(seeds));
  return doc.dump();
}

}  // namespace simbench
