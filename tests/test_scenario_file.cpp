// Data-driven scenario layer: ClusterConfig/KernelSpec/RunnerOptions JSON
// round-trips, scenario-file parsing with sweep expansion, strict
// validation with path-named errors, and the randomized generator's
// determinism and invariants.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/common/bitutil.hpp"
#include "src/scenario/runner.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm::scenario {
namespace {

// --------------------------------------------- ClusterConfig round trip ----

/// Every builtin preset and burst-extension variant must survive
/// to_json -> from_json byte-identically.
TEST(ClusterConfigJson, RoundTripIsIdentityForAllPresetVariants) {
  std::vector<ClusterConfig> variants;
  for (const std::string& preset :
       {"mp4spatz4", "mp64spatz4", "mp128spatz8"}) {
    const ClusterConfig base = ClusterConfig::by_name(preset);
    variants.push_back(base);
    variants.push_back(base.with_burst(2));
    variants.push_back(base.with_burst(4));
    variants.push_back(base.with_burst(4).with_strided_bursts());
    variants.push_back(base.with_burst(4).with_store_bursts(2));
  }
  for (const ClusterConfig& cfg : variants) {
    const Json j = cfg.to_json();
    const ClusterConfig back = ClusterConfig::from_json(j);
    EXPECT_EQ(j.dump(), back.to_json().dump()) << cfg.name;
  }
}

TEST(ClusterConfigJson, PresetPlusBurstSugarMatchesTheCppTransforms) {
  Json j;
  j.set("preset", "mp64spatz4");
  Json burst;
  burst.set("gf", 4);
  j.set("burst", std::move(burst));
  const ClusterConfig from_file = ClusterConfig::from_json(j);
  const ClusterConfig from_cpp = ClusterConfig::mp64spatz4().with_burst(4);
  EXPECT_EQ(from_file.to_json().dump(), from_cpp.to_json().dump());
}

TEST(ClusterConfigJson, UnknownKeyNamesTheOffendingPath) {
  Json j;
  j.set("preset", "mp4spatz4");
  j.set("num_tile", 8);  // typo
  try {
    (void)ClusterConfig::from_json(j, "scenarios[3]/config");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenarios[3]/config/num_tile"),
              std::string::npos)
        << e.what();
  }
}

TEST(ClusterConfigJson, NonPowerOfTwoTilesFailsValidationWithPath) {
  Json j;
  j.set("preset", "mp4spatz4");
  j.set("num_tiles", 3);
  Json::Array sizes;
  sizes.emplace_back(1);
  sizes.emplace_back(3);
  j.set("level_sizes", std::move(sizes));
  try {
    (void)ClusterConfig::from_json(j, "cfg");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cfg"), std::string::npos) << msg;
    EXPECT_NE(msg.find("powers of two"), std::string::npos) << msg;
  }
}

TEST(ClusterConfigJson, BurstBlockConflictsWithResolvedFields) {
  Json j;
  j.set("preset", "mp4spatz4");
  j.set("burst_enabled", true);
  Json burst;
  burst.set("gf", 2);
  j.set("burst", std::move(burst));
  EXPECT_THROW((void)ClusterConfig::from_json(j), std::invalid_argument);
}

TEST(ClusterConfigJson, BadTypeIsRejectedWithPath) {
  Json j;
  j.set("num_tiles", "four");
  try {
    (void)ClusterConfig::from_json(j, "cfg");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cfg/num_tiles"), std::string::npos);
  }
}

TEST(ClusterConfigJson, UnknownPresetListsTheKnownOnes) {
  Json j;
  j.set("preset", "mp32spatz2");
  try {
    (void)ClusterConfig::from_json(j);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mp128spatz8"), std::string::npos);
  }
}

// ------------------------------------------------- KernelSpec round trip ----

TEST(KernelSpecJson, RoundTripAndInstantiation) {
  Json j;
  j.set("kind", "matmul");
  j.set("n", 16);
  j.set("row_block", 4);
  const KernelSpec spec = KernelSpec::from_json(j);
  EXPECT_EQ(spec.kind, "matmul");
  EXPECT_EQ(j.dump(), spec.to_json().dump());
  const auto kernel = spec.instantiate(ClusterConfig::mp4spatz4());
  EXPECT_EQ(kernel->name(), "matmul");
}

TEST(KernelSpecJson, UnknownKindListsTheSupportedKinds) {
  Json j;
  j.set("kind", "sgemm");
  try {
    (void)KernelSpec::from_json(j, "kernel");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("kernel/kind"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dotp"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace_replay"), std::string::npos) << msg;
  }
}

TEST(KernelSpecJson, UnknownParameterNamesThePath) {
  Json j;
  j.set("kind", "dotp");
  j.set("size", 1024);  // the parameter is called n
  try {
    (void)KernelSpec::from_json(j, "scenarios[0]/kernel");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenarios[0]/kernel/size"),
              std::string::npos);
  }
}

TEST(KernelSpecJson, MissingRequiredParameterFailsAtInstantiation) {
  Json j;
  j.set("kind", "dotp");
  const KernelSpec spec = KernelSpec::from_json(j);
  try {
    (void)spec.instantiate(ClusterConfig::mp4spatz4(), "kernel");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kernel/n"), std::string::npos);
  }
}

/// Omitted probe iterations scale down on the 1024-FPU preset; the Table I,
/// Fig. 3, Pareto and explorer baselines were recorded with these counts.
TEST(KernelSpecJson, OmittedProbeItersScaleDownOnTheLargestPreset) {
  Json j;
  j.set("kind", "random_probe");
  const KernelSpec spec = KernelSpec::from_json(j);
  EXPECT_EQ(spec.instantiate(ClusterConfig::mp4spatz4())->size_desc(), "128-uniform");
  EXPECT_EQ(spec.instantiate(ClusterConfig::mp64spatz4())->size_desc(), "128-uniform");
  EXPECT_EQ(spec.instantiate(ClusterConfig::mp128spatz8())->size_desc(), "64-uniform");
}

// ---------------------------------------------- RunnerOptions round trip ----

TEST(RunnerOptionsJson, RoundTripPreservesEveryField) {
  RunnerOptions o;
  o.verify = false;
  o.max_cycles = 123456789;
  o.watchdog_window = 4242;
  const RunnerOptions back = runner_options_from_json(runner_options_to_json(o));
  EXPECT_EQ(runner_options_to_json(o).dump(), runner_options_to_json(back).dump());
}

TEST(RunnerOptionsJson, UnknownKeyIsRejected) {
  Json j;
  j.set("max_cycle", 100);
  try {
    (void)runner_options_from_json(j, "scenarios[1]/options");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenarios[1]/options/max_cycle"),
              std::string::npos);
  }
}

// ----------------------------------------------------- suite file parsing ----

Json parse_text(const std::string& text) { return Json::parse(text); }

constexpr const char* kMinimalSuite = R"({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "mini",
  "description": "one scenario",
  "scenarios": [
    {
      "name": "dotp",
      "config": {"preset": "mp4spatz4"},
      "kernel": {"kind": "dotp", "n": 256},
      "options": {"max_cycles": 1000000}
    }
  ]
})";

TEST(ScenarioFile, MinimalSuiteParses) {
  const LoadedSuite suite = parse_suite(parse_text(kMinimalSuite), "mini.json");
  EXPECT_EQ(suite.suite.name, "mini");
  EXPECT_TRUE(suite.suite.emit_by_default);
  ASSERT_EQ(suite.scenarios.size(), 1u);
  EXPECT_EQ(suite.scenarios[0].rel, "dotp");
  EXPECT_EQ(suite.scenarios[0].config.name, "mp4spatz4");
  EXPECT_EQ(suite.scenarios[0].opts.max_cycles, 1000000u);
  EXPECT_TRUE(suite.scenarios[0].expect_verified);
}

TEST(ScenarioFile, SweepExpandsTheCartesianProductLastKeyFastest) {
  const LoadedSuite suite = parse_suite(parse_text(R"({
    "schema": "tcdm-scenarios",
    "schema_version": 1,
    "suite": "sweep",
    "scenarios": [{
      "name": "gf{gf}/rob{rob}",
      "sweep": {"gf": [2, 4], "rob": {"range": {"from": 4, "to": 16, "mul": 2}}},
      "config": {"preset": "mp4spatz4", "rob_depth": "{rob}", "burst": {"gf": "{gf}"}},
      "kernel": {"kind": "random_probe", "iters": 8},
      "options": {"verify": false}
    }]
  })"),
                                        "sweep.json");
  ASSERT_EQ(suite.scenarios.size(), 6u);  // 2 gf x 3 rob
  // Sweep keys iterate in sorted order (gf before rob), rob fastest.
  EXPECT_EQ(suite.scenarios[0].rel, "gf2/rob4");
  EXPECT_EQ(suite.scenarios[1].rel, "gf2/rob8");
  EXPECT_EQ(suite.scenarios[2].rel, "gf2/rob16");
  EXPECT_EQ(suite.scenarios[3].rel, "gf4/rob4");
  // with_burst doubles the swept pre-burst depth.
  EXPECT_EQ(suite.scenarios[0].config.rob_depth, 8u);
  EXPECT_EQ(suite.scenarios[2].config.rob_depth, 32u);
  EXPECT_EQ(suite.scenarios[3].config.grouping_factor, 4u);
}

TEST(ScenarioFile, StepRangesAndObjectSweepValuesSubstitute) {
  const LoadedSuite suite = parse_suite(parse_text(R"({
    "schema": "tcdm-scenarios",
    "schema_version": 1,
    "suite": "objs",
    "scenarios": [{
      "name": "{k.label}/s{stagger}",
      "sweep": {
        "k": [{"label": "small", "spec": {"kind": "dotp", "n": 128}},
              {"label": "big", "spec": {"kind": "dotp", "n": 512}}],
        "stagger": {"range": {"from": 0, "to": 2, "step": 2}}
      },
      "config": {"preset": "mp4spatz4", "start_stagger_cycles": "{stagger}"},
      "kernel": "{k.spec}"
    }]
  })"),
                                        "objs.json");
  ASSERT_EQ(suite.scenarios.size(), 4u);
  EXPECT_EQ(suite.scenarios[0].rel, "small/s0");
  EXPECT_EQ(suite.scenarios[1].rel, "small/s2");
  EXPECT_EQ(suite.scenarios[0].config.start_stagger_cycles, 0u);
  EXPECT_EQ(suite.scenarios[1].config.start_stagger_cycles, 2u);
  // Whole-object substitution carried the kernel spec across.
  EXPECT_EQ(suite.scenarios[2].rel, "big/s0");
  EXPECT_EQ(suite.scenarios[2].kernel.kind, "dotp");
  EXPECT_EQ(suite.scenarios[2].kernel.params.at("n").as_double(), 512.0);
}

/// In-string placeholders print numbers as the JSON writer does: integers
/// without a decimal point, other numbers in their shortest round-trip form.
TEST(ScenarioFile, InStringPlaceholdersSpellNumbersLikeTheJsonWriter) {
  const LoadedSuite suite = parse_suite(parse_text(R"({
    "schema": "tcdm-scenarios",
    "schema_version": 1,
    "suite": "text",
    "scenarios": [{
      "name": "a{x}",
      "sweep": {"x": [0.1, 2]},
      "config": {"preset": "mp4spatz4"},
      "kernel": {"kind": "dotp", "n": 128}
    }]
  })"),
                                        "text.json");
  ASSERT_EQ(suite.scenarios.size(), 2u);
  EXPECT_EQ(suite.scenarios[0].rel, "a0.1");
  EXPECT_EQ(suite.scenarios[1].rel, "a2");
}

TEST(ScenarioFile, MalformedDocumentsNameTheOffendingPath) {
  const struct {
    const char* text;
    const char* expected;  // substring of the error message
  } cases[] = {
      {R"({"schema": "nope", "schema_version": 1, "suite": "x",
           "scenarios": [{}]})",
       "unknown schema \"nope\" (expected \"tcdm-scenarios\")"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 99, "suite": "x",
           "scenarios": [{}]})",
       "unsupported schema_version 99"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1,
           "scenarios": [{}]})",
       "suite: required"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenario": []})",
       "scenario: unknown key"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64},
                          "options": {"max_cycle": 5}}]})",
       "scenarios[0]/options/max_cycle"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a",
                          "config": {"preset": "mp4spatz4", "num_tiles": 6,
                                     "level_sizes": [1, 6]},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "scenarios[0]/config"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64, "seeds": 3}}]})",
       "scenarios[0]/kernel/seeds"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "fixed", "sweep": {"gf": [2, 4]},
                          "config": {"preset": "mp4spatz4", "burst": {"gf": "{gf}"}},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "duplicate expanded scenario name"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "{typo}", "sweep": {"gf": [2]},
                          "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "placeholder {typo} names no sweep parameter"},
      // A typo'd range must produce a diagnostic, not expand unboundedly.
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "n{n}",
                          "sweep": {"n": {"range": {"from": 0, "to": 1e16,
                                                    "step": 1}}},
                          "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "expands to more than"},
      // Design-point numbers refuse null (the metrics codec reads it as NaN),
      // and so do the optional template blocks.
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "n{n}",
                          "sweep": {"n": {"range": {"from": 1, "to": 4, "step": null}}},
                          "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "scenarios[0]/sweep/n/range/step: expected a number"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "n{n}",
                          "sweep": {"n": {"range": {"from": null, "to": 4, "step": 1}}},
                          "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "scenarios[0]/sweep/n/range/from: expected a number"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "axpy", "n": 64, "alpha": null}}]})",
       "scenarios[0]/kernel/alpha: expected a number"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "trace_replay", "pattern": "hotspot",
                                     "hotspot_fraction": null}}]})",
       "scenarios[0]/kernel/hotspot_fraction: expected a number"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}, "options": null}]})",
       "scenarios[0]/options: expected an object"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "sweep": null, "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "scenarios[0]/sweep: expected an object"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64},
                          "expect_verified": null}]})",
       "scenarios[0]/expect_verified: expected true or false"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}, "system": null}]})",
       "scenarios[0]/system: expected an object"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse_suite(parse_text(c.text), "doc.json");
      FAIL() << "expected ScenarioFileError for: " << c.text;
    } catch (const ScenarioFileError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("doc.json"), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.expected), std::string::npos) << msg;
    }
  }
}

TEST(ScenarioFile, OverDeepNestingIsRefusedAsUnreadableNamingThePath) {
  const std::string path = ::testing::TempDir() + "deep-nesting.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(50'000, '[');
  }
  try {
    (void)load_suite_file(path);
    FAIL() << "expected ScenarioFileIoError";
  } catch (const ScenarioFileIoError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path + ": ", 0), 0u) << msg;
    EXPECT_NE(msg.find("nesting deeper than"), std::string::npos) << msg;
  }
}

TEST(ScenarioFile, RemovedKeysAreRejectedWithTheirPath) {
  // Removed keys take the ordinary unknown-key path: a suite that still sets
  // one fails to load, naming the key's full path. They are the thread-count
  // keys of the removed tile-parallel and cluster-sharding layers, the net/bm
  // copies of the grouping factor and the Burst Manager write rate (derived
  // from grouping_factor and net.req_grouping_factor), and the cluster-level
  // barrier kind (a cluster's barrier is always central) — also next to the
  // burst sugar block, which sets the grouping factor itself.
  const struct {
    const char* config;
    const char* block;  // further scenario keys, after the kernel
    const char* expected;
  } cases[] = {
      {R"({"preset": "mp4spatz4"})", R"(, "options": {"sim_threads": 4})",
       "scenarios[0]/options/sim_threads"},
      {R"({"preset": "mp4spatz4"})", R"(, "options": {"shard_threads": 4})",
       "scenarios[0]/options/shard_threads"},
      {R"({"preset": "mp4spatz4"})",
       R"(, "system": {"name": "s", "num_clusters": 2, "shard_threads": 4})",
       "scenarios[0]/system/shard_threads"},
      {R"({"preset": "mp4spatz4", "net": {"grouping_factor": 1}})", "",
       "scenarios[0]/config/net/grouping_factor"},
      {R"({"preset": "mp4spatz4", "bm": {"grouping_factor": 1}})", "",
       "scenarios[0]/config/bm/grouping_factor"},
      {R"({"preset": "mp4spatz4", "bm": {"write_words_per_cycle": 1}})", "",
       "scenarios[0]/config/bm/write_words_per_cycle"},
      {R"({"preset": "mp4spatz4", "barrier_kind": "tree"})", "",
       "scenarios[0]/config/barrier_kind"},
      {R"({"preset": "mp4spatz4", "barrier_radix": 4})", "",
       "scenarios[0]/config/barrier_radix"},
      {R"({"preset": "mp4spatz4", "net": {"grouping_factor": 2}, "burst": {"gf": 4}})", "",
       "scenarios[0]/config/net/grouping_factor"},
  };
  for (const auto& c : cases) {
    const std::string text =
        std::string(R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": )") +
        c.config + R"(, "kernel": {"kind": "dotp", "n": 64})" + c.block + "}]}";
    try {
      (void)parse_suite(parse_text(text), "doc.json");
      FAIL() << "expected ScenarioFileError for: " << c.expected;
    } catch (const ScenarioFileError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.expected), std::string::npos) << msg;
      EXPECT_NE(msg.find("unknown key"), std::string::npos) << msg;
    }
  }
}

TEST(ScenarioFile, RegistersIntoARegistryAndRunsThroughTheSweepRunner) {
  ScenarioRegistry reg;
  register_loaded_suite(reg, parse_suite(parse_text(kMinimalSuite), "mini.json"));
  ASSERT_EQ(reg.suites().size(), 1u);
  const auto specs = reg.suite_scenarios("mini");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioResult r = run_scenario(*specs[0]);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.metrics.verified);
  EXPECT_GT(r.metrics.cycles, 0u);
}

// ------------------------------------------------------------- generator ----

TEST(ScenarioGen, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  GenOptions opts;
  opts.seed = 7;
  opts.count = 12;
  const std::string a = generate_suite(opts).dump();
  const std::string b = generate_suite(opts).dump();
  EXPECT_EQ(a, b);
  opts.seed = 8;
  EXPECT_NE(a, generate_suite(opts).dump());
}

TEST(ScenarioGen, OutputLoadsAndHonoursTheInvariants) {
  GenOptions opts;
  opts.seed = 12345;
  opts.count = 40;
  const LoadedSuite suite = parse_suite(generate_suite(opts), "gen");
  EXPECT_EQ(suite.suite.name, "gen_seed12345");
  ASSERT_EQ(suite.scenarios.size(), 40u);
  for (const FileScenario& sc : suite.scenarios) {
    EXPECT_TRUE(is_pow2(sc.config.num_tiles)) << sc.rel;
    EXPECT_TRUE(is_pow2(sc.config.banks_per_tile)) << sc.rel;
    EXPECT_GE(sc.config.banks_per_tile, sc.config.vlsu_ports) << sc.rel;
    unsigned prod = 1;
    for (unsigned s : sc.config.level_sizes) prod *= s;
    EXPECT_EQ(prod, sc.config.num_tiles) << sc.rel;
    if (sc.config.burst_enabled) {
      EXPECT_GE(sc.config.grouping_factor, 2u) << sc.rel;
      EXPECT_LE(sc.config.effective_max_burst_len(), sc.config.banks_per_tile)
          << sc.rel;
    } else {
      EXPECT_FALSE(sc.config.strided_bursts) << sc.rel;
      EXPECT_FALSE(sc.config.store_bursts) << sc.rel;
    }
    EXPECT_NO_THROW(sc.config.validate()) << sc.rel;
  }
}

/// A small generated sample actually simulates cleanly end to end — the
/// nightly CI sweep in miniature.
TEST(ScenarioGen, GeneratedScenariosRunCleanly) {
  GenOptions opts;
  opts.seed = 99;
  opts.count = 4;
  ScenarioRegistry reg;
  register_loaded_suite(reg, parse_suite(generate_suite(opts), "gen"));
  for (const ScenarioSpec* spec : reg.suite_scenarios("gen_seed99")) {
    const ScenarioResult r = run_scenario(*spec);
    EXPECT_TRUE(r.ok()) << spec->name << ": " << r.error;
  }
}

}  // namespace
}  // namespace tcdm::scenario
