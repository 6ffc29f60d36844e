// tcdm_run: one CLI for every paper table, figure, ablation and study —
// builtin or data-driven. Drives the scenario registry, so reproducing any
// artifact (or exploring a brand-new one from a JSON suite file) never
// requires a new binary.
//
//   tcdm_run list [--file F]... [glob...]      list suites and scenarios
//   tcdm_run run [-j N] [--stepping M] [--file F]...
//                [--no-builtin] [glob...]      run a selection; print tables
//   tcdm_run emit [-j N] [--stepping M] [--file F]...
//                 [--no-builtin] --out <dir> (--all | suite|glob...)
//                                              sweep suites, write <dir>/<suite>.json
//   tcdm_run bench [--reps N] [-j N] [--stepping M]
//                  [--file F]... [--no-builtin] [--out F]
//                  (--all | suite|glob...)
//                                              time whole-suite sweeps for N
//                                              repetitions; print a throughput
//                                              table and write a versioned
//                                              tcdm-perf JSON report
//   tcdm_run validate [file...|-]              load + expand + validate suite
//                                              files (default: stdin)
//   tcdm_run gen --seed N --count K [--out F]  emit a randomized, invariant-
//                                              checked suite file (stdout)
//   tcdm_run explore [-j N] [--stepping M] [--objective NAME]
//                    [--area-cap MGE] [--budget N] [--cache F] [--state F]
//                    [--resume] [--no-prune] [--report F] [--stats-out F]
//                    [--fail-after N] <suite.json>
//                                              memoized design-space search
//                                              over a suite file; prints the
//                                              Pareto frontier
//
// `--file` registers a tcdm-scenarios JSON suite (repeatable) next to the
// builtins; `--no-builtin` starts from an empty registry instead, which
// lets a file re-express a builtin suite under its own name. With `--file`
// and no globs/suites, the file's suites are selected. Globs match full
// scenario names (`*` crosses `/`). Parallel runs (-j) produce
// byte-identical emissions and stdout tables to serial ones; each scenario
// itself simulates on one thread. `--stepping event|cycle|check`
// selects how each cluster advances time (event-driven skipping, the
// cycle-by-cycle reference loop, or the self-verifying cross-check mode —
// all bit-identical; see docs/ARCHITECTURE.md).
// Exit codes: 0 ok, 1 scenario/validation failure or empty selection,
// 2 usage/IO errors (including unknown subcommands and corrupt explore
// cache/checkpoint files), 3 injected --fail-after abort.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/analytics/report.hpp"
#include "src/common/json.hpp"
#include "src/explore/explore.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/emit.hpp"
#include "src/scenario/runner.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"

namespace tcdm::scenario {
namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s list [--file F]... [glob...]\n"
      "       %s run [-j N] [--stepping M] [--file F]... [--no-builtin] [glob...]\n"
      "       %s emit [-j N] [--stepping M] [--file F]... [--no-builtin]\n"
      "            --out <dir> (--all | suite|glob...)\n"
      "       %s bench [--reps N] [-j N] [--stepping M] [--file F]... [--no-builtin]\n"
      "            [--out F] (--all | suite|glob...)\n"
      "       %s validate [file...|-]\n"
      "       %s gen [--seed N] [--count K] [--out <file>]\n"
      "       %s explore [-j N] [--stepping M] [--objective NAME] [--area-cap MGE]\n"
      "            [--budget N] [--cache F] [--state F] [--resume] [--no-prune]\n"
      "            [--report F] [--stats-out F] [--fail-after N] <suite.json>\n"
      "\n"
      "  --stepping M   time advance per cluster: event (skip quiet spans,\n"
      "                 default), cycle (reference loop), check (skip decisions\n"
      "                 verified cycle-by-cycle). All modes are bit-identical.\n"
      "\n"
      "  Scenarios may scale out with a \"system\" block (N clusters over a\n"
      "  modeled L2/NoC with inter-cluster DMA bursts); its barrier_kind is\n"
      "  one of: central, tree, butterfly, and its dma_words must fit the\n"
      "  cluster TCDM (banks x bank_words — `validate` names the offending\n"
      "  cluster config and the resolved capacity). `gen` emits such points\n"
      "  too.\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Flags shared by list/run/emit: sweep parallelism and stepping mode, plus
/// the data-driven registry sources.
struct CommonOptions {
  unsigned jobs = 1;
  std::optional<SteppingMode> stepping;  // unset = per-spec (event-driven)
  std::vector<std::string> files;
  bool no_builtin = false;
};

/// --stepping values; `check` maps to the self-verifying kCrossCheck mode.
bool parse_stepping(const std::string& value, std::optional<SteppingMode>& out) {
  if (value == "event") {
    out = SteppingMode::kEventDriven;
  } else if (value == "cycle") {
    out = SteppingMode::kCycleByCycle;
  } else if (value == "check") {
    out = SteppingMode::kCrossCheck;
  } else {
    return false;
  }
  return true;
}

/// Strict non-negative integer ("all" is not accepted; 0 means hardware
/// concurrency for -j, unlimited for --budget and disabled for --fail-after).
bool parse_size(const std::string& value, std::size_t& out) {
  try {
    std::size_t pos = 0;
    if (value.empty() || value[0] == '-' || value[0] == '+') return false;
    const unsigned long long parsed = std::stoull(value, &pos);
    if (pos != value.size()) return false;
    out = static_cast<std::size_t>(parsed);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Parses the common flags out of `args`; returns false on a malformed or
/// valueless flag (caller prints usage).
bool parse_common(std::vector<std::string>& args, CommonOptions& opts) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (args[i] == "-j" || args[i] == "--jobs") {
      if (i + 1 >= args.size()) return false;
      value = args[++i];
    } else if (args[i].rfind("-j", 0) == 0 && args[i].size() > 2) {
      value = args[i].substr(2);
    } else if (args[i] == "--stepping") {
      if (i + 1 >= args.size() || !parse_stepping(args[i + 1], opts.stepping)) return false;
      ++i;
      continue;
    } else if (args[i].rfind("--stepping=", 0) == 0) {
      if (!parse_stepping(args[i].substr(11), opts.stepping)) return false;
      continue;
    } else if (args[i] == "--file") {
      if (i + 1 >= args.size()) return false;
      opts.files.push_back(args[++i]);
      continue;
    } else if (args[i].rfind("--file=", 0) == 0) {
      opts.files.push_back(args[i].substr(7));
      continue;
    } else if (args[i] == "--no-builtin") {
      opts.no_builtin = true;
      continue;
    } else {
      rest.push_back(args[i]);
      continue;
    }
    // A count beyond unsigned is refused rather than truncated.
    std::size_t jobs = 0;
    if (!parse_size(value, jobs) || jobs > std::numeric_limits<unsigned>::max()) return false;
    opts.jobs = static_cast<unsigned>(jobs);
  }
  args = std::move(rest);
  return true;
}

/// Selection arguments are globs and suite names, which never start with
/// '-'; one that does is a flag the subcommand does not take.
bool has_unknown_flag(const std::vector<std::string>& args) {
  for (const std::string& a : args) {
    if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return true;
    }
  }
  return false;
}

/// Populate the process registry from the builtins (unless --no-builtin)
/// and every --file suite. Returns false after printing the error (a bad
/// scenario file is an IO/usage problem, exit 2). Registered file-suite
/// names land in `file_suites`.
bool setup_registry(const CommonOptions& opts, std::vector<std::string>& file_suites) {
  if (!opts.no_builtin) {
    register_builtin();
  } else if (opts.files.empty()) {
    std::fprintf(stderr, "--no-builtin requires at least one --file\n");
    return false;
  }
  for (const std::string& path : opts.files) {
    try {
      file_suites.push_back(register_suite_file(ScenarioRegistry::instance(), path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
  }
  return true;
}

/// Resolve suite names/globs against the registry, appending matches to
/// `suites` in registration order and deduplicating. Returns false after
/// printing the error when a pattern matches no suite (shared by emit and
/// bench so their selection semantics cannot drift apart).
bool resolve_suite_globs(const ScenarioRegistry& reg,
                         const std::vector<std::string>& wanted,
                         std::vector<std::string>& suites) {
  std::set<std::string> seen;
  for (const SuiteSpec& s : reg.suites()) {
    for (const std::string& w : wanted) {
      if (glob_match(w, s.name) && seen.insert(s.name).second) {
        suites.push_back(s.name);
        break;
      }
    }
  }
  for (const std::string& w : wanted) {
    bool matched = false;
    for (const SuiteSpec& s : reg.suites()) {
      if (glob_match(w, s.name)) matched = true;
    }
    if (!matched) {
      std::fprintf(stderr, "no suite matches '%s'\n", w.c_str());
      return false;
    }
  }
  return true;
}

/// All scenarios of the named suites, in registration order.
std::vector<const ScenarioSpec*> suites_selection(
    const ScenarioRegistry& reg, const std::vector<std::string>& suites) {
  std::vector<const ScenarioSpec*> out;
  for (const std::string& suite : suites) {
    const auto scenarios = reg.suite_scenarios(suite);
    out.insert(out.end(), scenarios.begin(), scenarios.end());
  }
  return out;
}

int cmd_list(const char* argv0, std::vector<std::string> args) {
  CommonOptions opts;
  if (!parse_common(args, opts) || has_unknown_flag(args)) return usage(argv0);
  std::vector<std::string> file_suites;
  if (!setup_registry(opts, file_suites)) return 2;

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  for (const SuiteSpec& suite : reg.suites()) {
    const auto scenarios = reg.suite_scenarios(suite.name);
    std::vector<const ScenarioSpec*> shown;
    for (const ScenarioSpec* s : scenarios) {
      if (args.empty()) {
        shown.push_back(s);
        continue;
      }
      for (const std::string& g : args) {
        if (glob_match(g, s->name)) {
          shown.push_back(s);
          break;
        }
      }
    }
    if (shown.empty()) continue;
    std::printf("%s — %s%s\n", suite.name.c_str(), suite.description.c_str(),
                suite.emit_by_default ? "" : "  [not in emit --all]");
    for (const ScenarioSpec* s : shown) std::printf("  %s\n", s->name.c_str());
  }
  return 0;
}

int cmd_run(const char* argv0, std::vector<std::string> args) {
  CommonOptions copts;
  if (!parse_common(args, copts) || has_unknown_flag(args)) return usage(argv0);
  std::vector<std::string> file_suites;
  if (!setup_registry(copts, file_suites)) return 2;
  if (args.empty() && file_suites.empty()) return usage(argv0);

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  // With --file and no globs, the file's suites are the selection.
  const std::vector<const ScenarioSpec*> selection =
      args.empty() ? suites_selection(reg, file_suites) : reg.select_all(args);
  if (selection.empty()) {
    std::fprintf(stderr, "no scenarios match\n");
    return 1;
  }

  SweepOptions opts;
  opts.jobs = copts.jobs;
  opts.stepping = copts.stepping;
  unsigned done = 0;
  opts.on_done = [&](const ScenarioResult& r) {
    ++done;
    std::fprintf(stderr, "  [%u/%zu] %s%s\n", done, selection.size(), r.name.c_str(),
                 r.ok() ? "" : ("  FAILED: " + r.error).c_str());
  };
  std::vector<ScenarioResult> results = run_scenarios(selection, opts);

  bool failed = false;
  for (const ScenarioResult& r : results) {
    if (!r.ok()) failed = true;
  }

  // Suites whose every registered scenario ran get their paper table; a
  // partial selection (and every file suite, which has no custom printer)
  // gets a compact per-scenario metrics table instead.
  TableWriter partial({"scenario", "cycles", "skipped", "BW [B/cyc/core]",
                       "GFLOPS@ss", "FPU util", "ok"});
  bool any_partial = false;
  for (auto& [suite_name, set] : group_by_suite(std::move(results))) {
    const SuiteSpec& suite = reg.suite(suite_name);
    if (suite.print && set.size() == reg.suite_scenarios(suite_name).size()) {
      suite.print(set);
      continue;
    }
    for (const ScenarioResult& r : set.all()) {
      partial.add_row({r.name, std::to_string(r.metrics.cycles),
                       std::to_string(static_cast<unsigned long long>(r.sim_cycles_skipped)),
                       fmt(r.metrics.bw_per_core), fmt(r.metrics.gflops_ss),
                       pct(r.metrics.fpu_util), r.ok() ? "OK" : "FAIL: " + r.error});
      any_partial = true;
    }
  }
  if (any_partial) partial.print(std::cout);
  return failed ? 1 : 0;
}

int cmd_emit(const char* argv0, std::vector<std::string> args) {
  CommonOptions copts;
  bool all = false;
  std::string out_dir;
  if (!parse_common(args, copts)) return usage(argv0);
  std::vector<std::string> wanted;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--all") {
      all = true;
    } else if (args[i] == "--out" || args[i] == "-o") {
      if (i + 1 >= args.size()) return usage(argv0);
      out_dir = args[++i];
    } else if (args[i].rfind("--out=", 0) == 0) {
      out_dir = args[i].substr(6);
    } else {
      wanted.push_back(args[i]);
    }
  }
  if (out_dir.empty() || (all && !wanted.empty()) || has_unknown_flag(wanted)) {
    return usage(argv0);
  }
  std::vector<std::string> file_suites;
  if (!setup_registry(copts, file_suites)) return 2;
  if (!all && wanted.empty() && file_suites.empty()) return usage(argv0);

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  // Resolve suite names/globs against the registry, keeping registration
  // order and deduplicating. With --file and no explicit selection, the
  // file's suites are emitted.
  std::vector<std::string> suites;
  if (all) {
    suites = default_emit_suites(reg);
  } else if (wanted.empty()) {
    suites = file_suites;
  } else if (!resolve_suite_globs(reg, wanted, suites)) {
    return 1;
  }
  if (suites.empty()) {
    std::fprintf(stderr, "no suites selected\n");
    return 1;
  }

  EmitOptions opts;
  opts.out_dir = out_dir;
  opts.jobs = copts.jobs;
  opts.stepping = copts.stepping;
  opts.log = &std::cerr;
  try {
    (void)emit_suites(reg, suites, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emit: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// The --stepping flag spelled back for the tcdm-perf report; "default"
/// means each spec kept its own (event-driven) setting.
const char* stepping_name(const std::optional<SteppingMode>& m) {
  if (!m.has_value()) return "default";
  switch (*m) {
    case SteppingMode::kEventDriven: return "event";
    case SteppingMode::kCycleByCycle: return "cycle";
    case SteppingMode::kCrossCheck: return "check";
  }
  return "?";
}

int cmd_bench(const char* argv0, std::vector<std::string> args) {
  CommonOptions copts;
  if (!parse_common(args, copts)) return usage(argv0);
  bool all = false;
  unsigned reps = 3;
  std::string out_path;
  std::vector<std::string> wanted;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (args[i] == "--all") {
      all = true;
      continue;
    } else if (args[i] == "--reps" || args[i].rfind("--reps=", 0) == 0) {
      if (args[i].size() == 6) {
        if (i + 1 >= args.size()) return usage(argv0);
        value = args[++i];
      } else {
        value = args[i].substr(7);
      }
      std::size_t parsed = 0;
      if (!parse_size(value, parsed) || parsed == 0 || parsed > 1000) return usage(argv0);
      reps = static_cast<unsigned>(parsed);
      continue;
    } else if (args[i] == "--out" || args[i] == "-o") {
      if (i + 1 >= args.size()) return usage(argv0);
      value = args[i + 1];
      ++i;
    } else if (args[i].rfind("--out=", 0) == 0) {
      value = args[i].substr(6);
    } else {
      wanted.push_back(args[i]);
      continue;
    }
    if (value.empty()) return usage(argv0);  // --out= with nothing after
    out_path = value;
  }
  if ((all && !wanted.empty()) || has_unknown_flag(wanted)) return usage(argv0);
  std::vector<std::string> file_suites;
  if (!setup_registry(copts, file_suites)) return 2;
  if (!all && wanted.empty() && file_suites.empty()) return usage(argv0);

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  std::vector<std::string> suites;
  if (all) {
    suites = default_emit_suites(reg);
  } else if (wanted.empty()) {
    suites = file_suites;
  } else if (!resolve_suite_globs(reg, wanted, suites)) {
    return 1;
  }
  if (suites.empty()) {
    std::fprintf(stderr, "no suites selected\n");
    return 1;
  }

  struct SuiteBench {
    std::string name;
    std::vector<const ScenarioSpec*> selection;
    unsigned scenarios = 0;
    unsigned long long sim_cycles = 0;       // sum of metrics.cycles, rep 0
    unsigned long long cycles_skipped = 0;   // event-driven skips, rep 0
    std::string fingerprint;                 // per-scenario cycle counts, rep 0
    std::vector<double> wall_s;              // one entry per repetition
  };
  std::vector<SuiteBench> benches;
  for (const std::string& s : suites) {
    SuiteBench b;
    b.name = s;
    b.selection = reg.suite_scenarios(s);
    benches.push_back(std::move(b));
  }

  SweepOptions sopts;
  sopts.jobs = copts.jobs;
  sopts.stepping = copts.stepping;
  using BenchClock = std::chrono::steady_clock;
  // Repetitions interleave across suites so host drift (thermal, noisy
  // neighbors) biases every suite equally; best-of-reps absorbs the noise.
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (SuiteBench& b : benches) {
      const auto t0 = BenchClock::now();
      const std::vector<ScenarioResult> results = run_scenarios(b.selection, sopts);
      const double secs = std::chrono::duration<double>(BenchClock::now() - t0).count();
      std::string fp;
      unsigned long long cycles = 0;
      unsigned long long skipped = 0;
      for (const ScenarioResult& r : results) {
        if (!r.ok()) {
          std::fprintf(stderr, "bench: %s failed: %s\n", r.name.c_str(), r.error.c_str());
          return 1;
        }
        cycles += r.metrics.cycles;
        skipped += static_cast<unsigned long long>(r.sim_cycles_skipped);
        fp += r.name;
        fp += ':';
        fp += std::to_string(r.metrics.cycles);
        fp += ';';
      }
      if (rep == 0) {
        b.scenarios = static_cast<unsigned>(results.size());
        b.sim_cycles = cycles;
        b.cycles_skipped = skipped;
        b.fingerprint = std::move(fp);
      } else if (fp != b.fingerprint) {
        // Later reps reuse pooled clusters via reset(); divergence means a
        // determinism bug, which outranks any throughput number.
        std::fprintf(stderr, "bench: suite %s diverged between repetitions\n",
                     b.name.c_str());
        return 1;
      }
      b.wall_s.push_back(secs);
      std::fprintf(stderr, "  rep %u/%u %s: %.3fs\n", rep + 1, reps, b.name.c_str(), secs);
    }
  }

  TableWriter table({"suite", "scenarios", "Mcycles", "best [s]", "mean [s]",
                     "Mcyc/s", "sims/s"});
  double total_best = 0.0;
  unsigned long long total_cycles = 0;
  unsigned total_scenarios = 0;
  Json::Array suites_json;
  for (const SuiteBench& b : benches) {
    const double best = *std::min_element(b.wall_s.begin(), b.wall_s.end());
    double mean = 0.0;
    for (const double w : b.wall_s) mean += w;
    mean /= static_cast<double>(b.wall_s.size());
    const double mcyc = static_cast<double>(b.sim_cycles) / 1e6;
    table.add_row({b.name, std::to_string(b.scenarios), fmt(mcyc), fmt(best, 3),
                   fmt(mean, 3), fmt(mcyc / best),
                   fmt(static_cast<double>(b.scenarios) / best)});
    total_best += best;
    total_cycles += b.sim_cycles;
    total_scenarios += b.scenarios;
    Json s;
    s.set("suite", b.name);
    s.set("scenarios", b.scenarios);
    s.set("sim_cycles", b.sim_cycles);
    s.set("sim_cycles_skipped", b.cycles_skipped);
    Json::Array walls;
    for (const double w : b.wall_s) walls.emplace_back(w);
    s.set("wall_s", Json(std::move(walls)));
    s.set("best_wall_s", best);
    s.set("mean_wall_s", mean);
    s.set("cycles_per_sec", static_cast<double>(b.sim_cycles) / best);
    s.set("scenarios_per_sec", static_cast<double>(b.scenarios) / best);
    suites_json.push_back(std::move(s));
  }
  table.add_separator();
  table.add_row({"total", std::to_string(total_scenarios),
                 fmt(static_cast<double>(total_cycles) / 1e6), fmt(total_best, 3), "",
                 fmt(static_cast<double>(total_cycles) / 1e6 / total_best),
                 fmt(static_cast<double>(total_scenarios) / total_best)});
  table.print(std::cout);

  if (!out_path.empty()) {
    // tcdm-perf v1: the versioned perf-trajectory record CI archives per
    // commit. Everything except the wall times is deterministic, so two
    // reports from one commit diff only in the timing fields.
    Json doc;
    doc.set("format", "tcdm-perf");
    doc.set("version", 1);
    doc.set("reps", reps);
    doc.set("jobs", copts.jobs);
    doc.set("stepping", stepping_name(copts.stepping));
    Json host;
    host.set("hardware_concurrency", std::thread::hardware_concurrency());
    host.set("compiler", __VERSION__);
#ifdef NDEBUG
    host.set("build", "release");
#else
    host.set("build", "debug");
#endif
    doc.set("host", std::move(host));
    doc.set("suites", Json(std::move(suites_json)));
    Json totals;
    totals.set("scenarios", total_scenarios);
    totals.set("sim_cycles", total_cycles);
    totals.set("best_wall_s", total_best);
    totals.set("cycles_per_sec", static_cast<double>(total_cycles) / total_best);
    doc.set("totals", std::move(totals));
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    out << doc.dump();
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "bench: write to %s failed\n", out_path.c_str());
      return 2;
    }
  }
  return 0;
}

int cmd_validate(std::vector<std::string> args) {
  if (args.empty()) args.emplace_back("-");  // gen | validate pipelines
  int rc = 0;  // worst outcome wins: 2 (unreadable, IO) > 1 (invalid content)
  for (const std::string& path : args) {
    const std::string source = path == "-" ? "<stdin>" : path;
    try {
      const LoadedSuite suite = load_suite_file(path);
      std::printf("%s: suite \"%s\" OK (%zu scenarios)\n", source.c_str(),
                  suite.suite.name.c_str(), suite.scenarios.size());
    } catch (const ScenarioFileIoError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = std::max(rc, 1);
    }
  }
  return rc;
}

int cmd_gen(const char* argv0, std::vector<std::string> args) {
  GenOptions opts;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (args[i] == "--seed" || args[i] == "--count" || args[i] == "--out") {
      if (i + 1 >= args.size()) return usage(argv0);
      value = args[i + 1];
    } else if (args[i].rfind("--seed=", 0) == 0) {
      value = args[i].substr(7);
    } else if (args[i].rfind("--count=", 0) == 0) {
      value = args[i].substr(8);
    } else if (args[i].rfind("--out=", 0) == 0) {
      value = args[i].substr(6);
    } else {
      return usage(argv0);
    }
    const bool is_seed = args[i].rfind("--seed", 0) == 0;
    const bool is_count = args[i].rfind("--count", 0) == 0;
    if (args[i].find('=') == std::string::npos) ++i;
    if (is_seed || is_count) {
      // Strict: the whole value must be a non-negative integer. stoull
      // alone would wrap "-1" and stop at trailing junk ("20x") — fatal
      // for a tool whose point is seed-exact reproducibility.
      try {
        std::size_t pos = 0;
        if (value.empty() || value[0] == '-' || value[0] == '+') throw std::invalid_argument(value);
        const unsigned long long parsed = std::stoull(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        if (is_seed) {
          opts.seed = parsed;
        } else if (parsed > 4294967295ULL) {
          throw std::out_of_range(value);
        } else {
          opts.count = static_cast<unsigned>(parsed);
        }
      } catch (const std::exception&) {
        return usage(argv0);
      }
    } else {
      // `--out=` with an empty value (e.g. an unset shell variable) must
      // not silently fall back to stdout, matching emit's --out handling.
      if (value.empty()) return usage(argv0);
      out_path = value;
    }
  }
  if (opts.count == 0) return usage(argv0);
  if (opts.count > kMaxScenariosPerSuite) {
    std::fprintf(stderr, "gen: --count is capped at %zu scenarios per suite\n",
                 kMaxScenariosPerSuite);
    return 2;
  }

  std::string text;
  try {
    text = generate_suite(opts).dump();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gen: internal error: %s\n", e.what());
    return 2;
  }
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "gen: cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  out << text;
  out.flush();  // surface a full-disk/IO failure before the exit code
  if (!out.good()) {
    std::fprintf(stderr, "gen: write to %s failed\n", out_path.c_str());
    return 2;
  }
  return 0;
}

int cmd_explore(const char* argv0, std::vector<std::string> args) {
  CommonOptions copts;
  if (!parse_common(args, copts)) return usage(argv0);

  explore::ExploreOptions eopts;
  eopts.jobs = copts.jobs;
  eopts.stepping = copts.stepping;
  eopts.log = &std::cerr;
  std::string report_path;
  std::string stats_path;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    enum class Want { kObjective, kAreaCap, kBudget, kCache, kState, kReport,
                      kStats, kFailAfter } want;
    if (args[i] == "--resume") {
      eopts.resume = true;
      continue;
    } else if (args[i] == "--no-prune") {
      eopts.prune = false;
      continue;
    } else if (args[i] == "--objective") {
      want = Want::kObjective;
    } else if (args[i] == "--area-cap") {
      want = Want::kAreaCap;
    } else if (args[i] == "--budget") {
      want = Want::kBudget;
    } else if (args[i] == "--cache") {
      want = Want::kCache;
    } else if (args[i] == "--state") {
      want = Want::kState;
    } else if (args[i] == "--report") {
      want = Want::kReport;
    } else if (args[i] == "--stats-out") {
      want = Want::kStats;
    } else if (args[i] == "--fail-after") {
      want = Want::kFailAfter;
    } else if (args[i].rfind("--", 0) == 0 &&
               args[i].find('=') != std::string::npos) {
      const std::string flag = args[i].substr(0, args[i].find('='));
      value = args[i].substr(args[i].find('=') + 1);
      if (flag == "--objective") want = Want::kObjective;
      else if (flag == "--area-cap") want = Want::kAreaCap;
      else if (flag == "--budget") want = Want::kBudget;
      else if (flag == "--cache") want = Want::kCache;
      else if (flag == "--state") want = Want::kState;
      else if (flag == "--report") want = Want::kReport;
      else if (flag == "--stats-out") want = Want::kStats;
      else if (flag == "--fail-after") want = Want::kFailAfter;
      else return usage(argv0);
    } else {
      rest.push_back(args[i]);
      continue;
    }
    if (value.empty()) {
      if (args[i].find('=') == std::string::npos) {
        if (i + 1 >= args.size()) return usage(argv0);
        value = args[++i];
      }
      if (value.empty()) return usage(argv0);  // --flag= with nothing after
    }
    switch (want) {
      case Want::kObjective:
        try {
          eopts.objective.kind = explore::objective_by_name(value);
        } catch (const std::invalid_argument& e) {
          std::fprintf(stderr, "explore: %s\n", e.what());
          return 2;
        }
        break;
      case Want::kAreaCap:
        try {
          std::size_t pos = 0;
          eopts.objective.area_cap_mge = std::stod(value, &pos);
          if (pos != value.size() || eopts.objective.area_cap_mge <= 0.0) {
            return usage(argv0);
          }
        } catch (const std::exception&) {
          return usage(argv0);
        }
        break;
      case Want::kBudget:
        if (!parse_size(value, eopts.budget)) return usage(argv0);
        break;
      case Want::kCache: eopts.cache_path = value; break;
      case Want::kState: eopts.state_path = value; break;
      case Want::kReport: report_path = value; break;
      case Want::kStats: stats_path = value; break;
      case Want::kFailAfter:
        if (!parse_size(value, eopts.fail_after)) return usage(argv0);
        break;
    }
  }
  // The search space is one suite file: either a positional path or --file
  // (but not both, and exactly one — explore does not span suites).
  for (const std::string& f : copts.files) rest.push_back(f);
  if (rest.size() != 1 || copts.no_builtin) return usage(argv0);
  if (eopts.resume && eopts.state_path.empty()) {
    std::fprintf(stderr, "explore: --resume requires --state\n");
    return 2;
  }

  LoadedSuite suite;
  try {
    suite = load_suite_file(rest[0]);
  } catch (const ScenarioFileIoError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  explore::ExploreOutcome outcome;
  try {
    outcome = explore::run_explore(suite, eopts);
  } catch (const explore::ExploreAborted& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 3;
  } catch (const explore::ExploreFileError& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 2;
  }

  explore::print_frontier(std::cout, eopts, outcome);
  // Fixed-format machine-readable summary (the CI warm-cache smoke leg
  // greps simulations=0 out of this line).
  std::printf(
      "explore: candidates=%zu pruned_area_cap=%zu pruned_dominated=%zu "
      "cache_hits=%zu simulations=%zu failures=%zu frontier=%zu "
      "budget_exhausted=%d\n",
      outcome.candidates, outcome.pruned_area_cap, outcome.pruned_dominated,
      outcome.cache_hits, outcome.simulations, outcome.failures,
      outcome.frontier.size(), outcome.budget_exhausted ? 1 : 0);

  const auto write_file = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "explore: cannot open %s for writing\n", path.c_str());
      return false;
    }
    out << text;
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "explore: write to %s failed\n", path.c_str());
      return false;
    }
    return true;
  };
  if (!report_path.empty() &&
      !write_file(report_path, explore::report_json(suite, eopts, outcome).dump())) {
    return 2;
  }
  if (!stats_path.empty() && !write_file(stats_path, outcome.stats_json)) return 2;

  return outcome.failures > 0 ? 1 : 0;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  if (cmd == "list") return cmd_list(argv[0], std::move(args));
  if (cmd == "run") return cmd_run(argv[0], std::move(args));
  if (cmd == "emit") return cmd_emit(argv[0], std::move(args));
  if (cmd == "bench") return cmd_bench(argv[0], std::move(args));
  if (cmd == "validate") return cmd_validate(std::move(args));
  if (cmd == "gen") return cmd_gen(argv[0], std::move(args));
  if (cmd == "explore") return cmd_explore(argv[0], std::move(args));
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return usage(argv[0]);
}

}  // namespace
}  // namespace tcdm::scenario

int main(int argc, char** argv) { return tcdm::scenario::main_impl(argc, argv); }
