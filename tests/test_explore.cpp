// Design-space exploration engine: canonical config-hash stability across
// spellings, Pareto-frontier invariants under randomized insertion, memo
// store round-trips and corruption handling, and in-process differential
// checks — pruned+memoized searches must reproduce exhaustive enumeration
// byte for byte, warm caches must answer without simulating, and
// budget/fail-after interruptions, rerun on the same cache, must converge on
// the identical frontier.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "src/explore/explore.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"

namespace tcdm::explore {
namespace {

using scenario::FileScenario;
using scenario::GenOptions;
using scenario::LoadedSuite;

/// A freshly generated, fully validated suite (the same artifact
/// `tcdm_run gen --seed N` emits).
LoadedSuite gen_suite(std::uint64_t seed, unsigned count) {
  GenOptions opts;
  opts.seed = seed;
  opts.count = count;
  return scenario::parse_suite(scenario::generate_suite(opts), "<gen>");
}

/// Unique scratch path inside the gtest temp dir.
std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "tcdm_explore_" + name;
}

// ------------------------------------------------ canonical config hash ----

TEST(ConfigHash, PresetSugarAndExplicitSpellingHashIdentically) {
  // The same design point written two ways: preset + burst sugar, and the
  // fully expanded field-by-field JSON the first one resolves to.
  Json sugar;
  sugar.set("preset", "mp4spatz4");
  Json burst;
  burst.set("gf", 4);
  sugar.set("burst", std::move(burst));

  FileScenario a;
  a.rel = "a";
  a.config = ClusterConfig::from_json(sugar);
  a.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "dotp");
    k.set("n", 1024);
    return k;
  }());

  FileScenario b = a;
  b.rel = "b";  // identity is the design point, not the scenario name
  b.config = ClusterConfig::from_json(a.config.to_json());

  EXPECT_EQ(canonical_key(a), canonical_key(b));
  EXPECT_EQ(canonical_point_json(a).dump(), canonical_point_json(b).dump());
}

TEST(ConfigHash, EverySimulationRelevantFieldChangesTheKey) {
  FileScenario base;
  base.config = ClusterConfig::by_name("mp4spatz4");
  base.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "dotp");
    k.set("n", 1024);
    return k;
  }());

  std::vector<FileScenario> variants;
  {  // config change
    FileScenario v = base;
    Json cfg = base.config.to_json();
    cfg.set("vlen_bits", 1024);
    v.config = ClusterConfig::from_json(cfg);
    variants.push_back(v);
  }
  {  // kernel parameter change
    FileScenario v = base;
    v.kernel.params["n"] = Json(2048);
    variants.push_back(v);
  }
  {  // kernel kind change
    FileScenario v = base;
    v.kernel = scenario::KernelSpec::from_json([] {
      Json k;
      k.set("kind", "axpy");
      k.set("n", 1024);
      return k;
    }());
    variants.push_back(v);
  }
  {  // runner option change
    FileScenario v = base;
    v.opts.verify = !base.opts.verify;
    variants.push_back(v);
  }
  {  // runner cycle-cap change
    FileScenario v = base;
    v.opts.max_cycles = base.opts.max_cycles + 1;
    variants.push_back(v);
  }
  {  // expectation change
    FileScenario v = base;
    v.expect_verified = !base.expect_verified;
    variants.push_back(v);
  }

  const std::string base_key = canonical_key(base);
  EXPECT_EQ(base_key.size(), 32u);
  std::vector<std::string> keys{base_key};
  for (const FileScenario& v : variants) keys.push_back(canonical_key(v));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "variants " << i << " and " << j;
    }
  }
}

TEST(ConfigHash, KeyIsStableAcrossProcessRestarts) {
  // The key must be a pure function of the design point — no pointers, no
  // iteration-order dependence. Lock known digests, recorded from an
  // earlier build, so an accidental serialization change (which would
  // orphan every existing cache) fails loudly here instead of silently
  // invalidating stores in the field. Re-recorded once, on purpose, when
  // the Snitch latencies and the NoC/L2 transport settings became
  // constants and left the serialized config (caches written before that
  // no longer match any key).
  FileScenario p;
  p.config = ClusterConfig::by_name("mp4spatz4");
  p.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "dotp");
    k.set("n", 256);
    return k;
  }());
  EXPECT_EQ(canonical_key(p), "77cf8c7768273c21dfe6646e1a4224da");
  SystemConfig sys;
  sys.name = "sys";
  sys.num_clusters = 4;
  sys.dma_words = 512;
  p.system = sys;
  EXPECT_EQ(canonical_key(p), "0b83e4e5611d3e7ae7e6fb2a00343a32");
  // Off-default barrier fields, which the writer omits at their defaults.
  sys.barrier_kind = BarrierKind::kTree;
  sys.barrier_radix = 4;
  p.system = sys;
  EXPECT_EQ(canonical_key(p), "79d6a358753f89b1ddc67cf5f149d2c0");
  // Every burst extension on: GF4 responses, strided and store bursts.
  p.system.reset();
  p.config = ClusterConfig::by_name("mp4spatz4")
                 .with_burst(4)
                 .with_strided_bursts()
                 .with_store_bursts(2);
  EXPECT_EQ(canonical_key(p), "a9a12234fa79a200faf739a6014a74bc");
  EXPECT_EQ(digest128("tcdm"), "94475cbafd48273673bcc5a5250a8ecb");
  EXPECT_NE(digest128("tcdm"), digest128("tcdM"));
}

// ------------------------------------------------------ Pareto frontier ----

TEST(Pareto, RandomizedInsertionKeepsInvariants) {
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> coord(0.0, 100.0);
  ParetoFrontier frontier;
  std::vector<FrontierPoint> rejected;
  for (int i = 0; i < 500; ++i) {
    FrontierPoint p;
    p.rel = "p" + std::to_string(i);
    p.cost = coord(rng);
    p.value = coord(rng);
    if (!frontier.insert(p)) rejected.push_back(p);

    // Invariant 1: members are mutually non-dominated and sorted by cost.
    const auto& pts = frontier.points();
    for (std::size_t a = 0; a < pts.size(); ++a) {
      if (a + 1 < pts.size()) ASSERT_LE(pts[a].cost, pts[a + 1].cost);
      for (std::size_t b = 0; b < pts.size(); ++b) {
        if (a == b) continue;
        ASSERT_FALSE(dominates(pts[a].cost, pts[a].value, pts[b].cost, pts[b].value))
            << pts[a].rel << " dominates member " << pts[b].rel;
      }
    }
  }
  ASSERT_FALSE(rejected.empty());
  ASSERT_FALSE(frontier.points().empty());

  // Invariant 2: every rejected point is weakly dominated by some member of
  // the *final* frontier (dominance only ever tightens).
  for (const FrontierPoint& r : rejected) {
    bool dominated = false;
    for (const FrontierPoint& m : frontier.points()) {
      if (dominates(m.cost, m.value, r.cost, r.value)) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << r.rel << " was rejected but is not dominated";
  }
}

TEST(Pareto, DominatingInsertEvictsEveryDominatedMember) {
  ParetoFrontier f;
  auto mk = [](double cost, double value) {
    FrontierPoint p;
    p.cost = cost;
    p.value = value;
    return p;
  };
  EXPECT_TRUE(f.insert(mk(10, 5)));
  EXPECT_TRUE(f.insert(mk(20, 8)));
  EXPECT_TRUE(f.insert(mk(30, 9)));
  ASSERT_EQ(f.size(), 3u);
  // Cheaper than all and at least as valuable: sweeps the board.
  EXPECT_TRUE(f.insert(mk(5, 9)));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.points()[0].cost, 5.0);
  // Exact duplicate is rejected (first-come tie-breaking).
  EXPECT_FALSE(f.insert(mk(5, 9)));
  ASSERT_EQ(f.size(), 1u);
}

TEST(Pareto, ScalarObjectiveDegeneratesToTheSingleBestPoint) {
  Objective obj;
  obj.kind = ObjectiveKind::kMinCycles;
  ParetoFrontier f;
  KernelMetrics m;
  for (const std::uint64_t cycles : {900u, 500u, 700u, 501u}) {
    FrontierPoint p;
    p.rel = "c" + std::to_string(cycles);
    m.cycles = cycles;
    p.cost = obj.cost(1.0);
    p.value = obj.value(1.0, m);
    f.insert(std::move(p));
  }
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.points()[0].rel, "c500");
}

TEST(Pareto, ValueBoundDominatesAchievedValue) {
  // The exact-pruning guarantee: for every objective and any simulated
  // metrics, value(area, m) <= value_bound(area, cfg).
  const ClusterConfig cfg = ClusterConfig::by_name("mp4spatz4");
  KernelMetrics m;
  m.cycles = 1000;
  m.bw_bytes_per_cycle = cfg.cluster_peak_bw();  // best physically possible
  for (const ObjectiveKind kind :
       {ObjectiveKind::kParetoAreaBw, ObjectiveKind::kMinCycles,
        ObjectiveKind::kMaxBwPerArea}) {
    Objective obj;
    obj.kind = kind;
    EXPECT_LE(obj.value(3.0, m), obj.value_bound(3.0, cfg))
        << objective_name(kind);
  }
}

// ----------------------------------------------------------- memo store ----

KernelMetrics awkward_metrics() {
  KernelMetrics m;
  m.config = "cfg";
  m.kernel = "k";
  m.size = "n=3";
  m.cycles = 1234567;
  m.flops = 1e9 / 3.0;
  m.bytes = 0.1;  // not exactly representable: exercises the round trip
  m.fpu_util = 1.0 / 3.0;
  m.flops_per_cycle = 6.02e23;
  m.gflops_ss = 1.25;
  m.gflops_tt = std::nan("");
  m.bw_bytes_per_cycle = 123.456789012345678;
  m.bw_per_core = 7.7;
  m.arithmetic_intensity = 0.25;
  m.verified = true;
  m.timed_out = false;
  return m;
}

TEST(MemoStore, FileBackedRoundTripIsBitExact) {
  const std::string path = scratch("memo_roundtrip.jsonl");
  std::remove(path.c_str());
  CachedResult in;
  in.rel = "c0/dotp";
  in.metrics = awkward_metrics();
  in.metrics.clusters = 4;
  in.metrics.noc_bytes = 4096.5;
  in.power.config = "cfg";
  in.power.fpu_w = 1.0 / 7.0;
  in.power.vrf_w = 0.2;
  in.power.vlsu_w = 0.3;
  in.power.snitch_w = 0.4;
  in.power.icn_w = 0.5;
  in.power.banks_w = 0.6;
  in.power.burst_w = 0.7;
  in.power.static_w = 0.8;
  {
    MemoStore store(path);
    store.insert("k1", in);
    EXPECT_EQ(store.size(), 1u);
  }
  {  // the stored line is a wire format: pin it byte for byte
    std::ifstream file(path, std::ios::binary);
    std::string header, line;
    std::getline(file, header);
    std::getline(file, line);
    EXPECT_EQ(line,
              R"({"error":"","key":"k1","metrics":{"arithmetic_intensity":0.25)"
              R"(,"bw_bytes_per_cycle":123.45678901234568,"bw_per_core":7.7,"bytes":0.1)"
              R"(,"clusters":4,"config":"cfg","cycles":1234567,"flops":333333333.3333333)"
              R"(,"flops_per_cycle":6.02e+23,"fpu_util":0.3333333333333333,"gflops_ss":1.25)"
              R"(,"gflops_tt":null,"kernel":"k","noc_bytes":4096.5,"size":"n=3","timed_out":false)"
              R"(,"verified":true},"power":{"banks_w":0.6,"burst_w":0.7,"config":"cfg")"
              R"(,"fpu_w":0.14285714285714285,"icn_w":0.5,"snitch_w":0.4,"static_w":0.8)"
              R"(,"vlsu_w":0.3,"vrf_w":0.2},"rel":"c0/dotp"})");
  }
  MemoStore reloaded(path);
  ASSERT_EQ(reloaded.size(), 1u);
  const CachedResult* out = reloaded.lookup("k1");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->rel, in.rel);
  EXPECT_TRUE(out->ok());
  EXPECT_EQ(out->metrics.cycles, in.metrics.cycles);
  EXPECT_EQ(out->metrics.flops, in.metrics.flops);
  EXPECT_EQ(out->metrics.bytes, in.metrics.bytes);
  EXPECT_EQ(out->metrics.fpu_util, in.metrics.fpu_util);
  EXPECT_EQ(out->metrics.flops_per_cycle, in.metrics.flops_per_cycle);
  EXPECT_EQ(out->metrics.bw_bytes_per_cycle, in.metrics.bw_bytes_per_cycle);
  EXPECT_TRUE(std::isnan(out->metrics.gflops_tt));  // NaN survives as null
  EXPECT_EQ(out->metrics.clusters, 4u);
  EXPECT_EQ(out->metrics.noc_bytes, in.metrics.noc_bytes);
  EXPECT_EQ(out->power.fpu_w, in.power.fpu_w);
  EXPECT_EQ(out->power.static_w, in.power.static_w);
  EXPECT_EQ(out->power.total(), in.power.total());
  EXPECT_EQ(reloaded.lookup("nope"), nullptr);
}

TEST(MemoStore, LastLineWinsForARewrittenKey) {
  const std::string path = scratch("memo_lastwins.jsonl");
  std::remove(path.c_str());
  CachedResult first;
  first.rel = "old";
  first.error = "timeout";
  CachedResult second;
  second.rel = "new";
  {
    MemoStore store(path);
    store.insert("k", first);
    store.insert("k", second);
  }
  MemoStore reloaded(path);
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.lookup("k")->rel, "new");
  EXPECT_TRUE(reloaded.lookup("k")->ok());
}

TEST(MemoStore, TornFinalLineIsToleratedAsACrashArtifact) {
  const std::string path = scratch("memo_torn.jsonl");
  std::remove(path.c_str());
  {
    MemoStore store(path);
    CachedResult r;
    r.rel = "good";
    store.insert("k", r);
  }
  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << "{\"key\":\"k2\",\"rel\":\"half";  // killed mid-append, no newline
  }
  {
    MemoStore reloaded(path);  // must not throw
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_NE(reloaded.lookup("k"), nullptr);
    // The rerun appends after the crash: the entry must land on its own
    // line, not fuse with the torn fragment.
    CachedResult r;
    r.rel = "after";
    reloaded.insert("k3", r);
  }
  MemoStore reopened(path);  // must not throw
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_NE(reopened.lookup("k"), nullptr);
  ASSERT_NE(reopened.lookup("k3"), nullptr);
  EXPECT_EQ(reopened.lookup("k3")->rel, "after");
}

TEST(MemoStore, CompleteFinalLineWithoutNewlineIsKept) {
  const std::string path = scratch("memo_unterminated.jsonl");
  std::remove(path.c_str());
  {
    MemoStore store(path);
    CachedResult r;
    r.rel = "good";
    store.insert("k", r);
  }
  {  // a kill between an entry and its newline
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    text.pop_back();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  {
    MemoStore reloaded(path);
    EXPECT_NE(reloaded.lookup("k"), nullptr);
    reloaded.insert("k2", CachedResult{});
  }
  MemoStore reopened(path);
  EXPECT_EQ(reopened.size(), 2u);
}

TEST(MemoStore, CorruptMiddleLineNamesPathAndLine) {
  const std::string path = scratch("memo_corrupt.jsonl");
  std::remove(path.c_str());
  {
    MemoStore store(path);
    CachedResult r;
    store.insert("k", r);
  }
  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << "not json\n{\"also\":\"broken\"}\n";
  }
  try {
    MemoStore reloaded(path);
    FAIL() << "expected ExploreFileError";
  } catch (const ExploreFileError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3"), std::string::npos)
        << e.what();
  }
}

TEST(MemoStore, VersionMismatchIsRejectedWithThePath) {
  const std::string path = scratch("memo_version.jsonl");
  const struct {
    const char* header;
    const char* expected;  // the error after `path:1/`
  } cases[] = {
      {R"({"schema":"tcdm-explore-cache","schema_version":999})",
       "schema_version: unsupported schema_version 999"},
      {R"({"schema":"nope","schema_version":1})", "schema: unknown schema \"nope\""},
  };
  for (const auto& c : cases) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << c.header << "\n";
    try {
      MemoStore store(path);
      ADD_FAILURE() << "expected ExploreFileError for " << c.header;
    } catch (const ExploreFileError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path + ":1/" + c.expected), std::string::npos) << msg;
    }
  }
}

// ------------------------------------------------------- explore driver ----

TEST(Explore, WarmCacheAnswersEverythingWithoutSimulating) {
  const LoadedSuite suite = gen_suite(7, 8);
  const std::string cache = scratch("warm_cache.jsonl");
  std::remove(cache.c_str());
  ExploreOptions opts;
  opts.cache_path = cache;
  opts.jobs = 2;

  const ExploreOutcome cold = run_explore(suite, opts);
  EXPECT_GT(cold.simulations, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  const ExploreOutcome warm = run_explore(suite, opts);
  EXPECT_EQ(warm.simulations, 0u);
  EXPECT_EQ(warm.cache_hits + warm.pruned_area_cap + warm.pruned_dominated,
            warm.candidates);
  EXPECT_EQ(report_json(suite, opts, cold).dump(),
            report_json(suite, opts, warm).dump());
}

TEST(Explore, PrunedAndMemoizedSearchEqualsExhaustiveEnumeration) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const LoadedSuite suite = gen_suite(seed, 8);

    ExploreOptions exhaustive;
    exhaustive.prune = false;
    const ExploreOutcome full = run_explore(suite, exhaustive);

    ExploreOptions pruned;
    pruned.prune = true;
    pruned.jobs = 4;
    const ExploreOutcome fast = run_explore(suite, pruned);

    EXPECT_EQ(report_json(suite, exhaustive, full).dump(),
              report_json(suite, pruned, fast).dump())
        << "seed " << seed;
    EXPECT_EQ(full.pruned_dominated, 0u);
    EXPECT_EQ(fast.simulations + fast.pruned_dominated + fast.pruned_area_cap,
              fast.candidates)
        << "seed " << seed;
  }
}

TEST(Explore, BudgetStopsGracefullyAndResumesToTheSameFrontier) {
  const LoadedSuite suite = gen_suite(5, 8);
  const std::string cache = scratch("budget_cache.jsonl");
  std::remove(cache.c_str());

  ExploreOptions uninterrupted;
  const ExploreOutcome reference = run_explore(suite, uninterrupted);

  ExploreOptions budgeted;
  budgeted.budget = 3;
  budgeted.cache_path = cache;
  const ExploreOutcome part1 = run_explore(suite, budgeted);
  EXPECT_TRUE(part1.budget_exhausted);
  EXPECT_EQ(part1.simulations, 3u);

  // The rerun replays from the start: part 1's simulations are the hits.
  ExploreOptions rest = budgeted;
  rest.budget = 0;
  const ExploreOutcome part2 = run_explore(suite, rest);
  EXPECT_FALSE(part2.budget_exhausted);
  EXPECT_EQ(part2.cache_hits, 3u);
  EXPECT_EQ(report_json(suite, uninterrupted, reference).dump(),
            report_json(suite, rest, part2).dump());
}

TEST(Explore, FailAfterAbortsThenResumeConverges) {
  const LoadedSuite suite = gen_suite(9, 8);
  const std::string cache = scratch("failafter_cache.jsonl");
  std::remove(cache.c_str());

  const ExploreOutcome reference = run_explore(suite, ExploreOptions{});

  ExploreOptions faulty;
  faulty.cache_path = cache;
  faulty.fail_after = 2;
  EXPECT_THROW((void)run_explore(suite, faulty), ExploreAborted);

  ExploreOptions recover = faulty;
  recover.fail_after = 0;
  const ExploreOutcome resumed = run_explore(suite, recover);
  EXPECT_GE(resumed.cache_hits, 2u);  // the aborted wave's sims were kept
  EXPECT_EQ(report_json(suite, ExploreOptions{}, reference).dump(),
            report_json(suite, recover, resumed).dump());
}

TEST(Explore, AreaCapMakesEveryCandidateInadmissible) {
  const LoadedSuite suite = gen_suite(21, 6);
  ExploreOptions opts;
  opts.objective.area_cap_mge = 1e-9;  // nothing is this small
  const ExploreOutcome out = run_explore(suite, opts);
  EXPECT_EQ(out.pruned_area_cap, out.candidates);
  EXPECT_EQ(out.simulations, 0u);
  EXPECT_TRUE(out.frontier.empty());
}

TEST(Explore, ReportIsIndependentOfJobsAndWaveScheduling) {
  const LoadedSuite suite = gen_suite(17, 8);
  ExploreOptions serial;
  serial.jobs = 1;
  ExploreOptions parallel;
  parallel.jobs = 8;
  EXPECT_EQ(report_json(suite, serial, run_explore(suite, serial)).dump(),
            report_json(suite, parallel, run_explore(suite, parallel)).dump());
}

}  // namespace
}  // namespace tcdm::explore
