// tcdm_run: one CLI for every paper table, figure, ablation and study —
// builtin or data-driven. Its subcommands and their flags are the
// kSubcommands table; usage() prints it (run with no arguments).
// Exit codes: 0 ok, 1 scenario/validation failure or empty selection,
// 2 usage/IO errors (including unknown subcommands and flags, and corrupt
// explore cache files), 3 injected --fail-after abort.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analytics/report.hpp"
#include "src/explore/explore.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/emit.hpp"
#include "src/scenario/runner.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"

namespace tcdm::scenario {
namespace {

int usage(const char* argv0);

/// Every value a flag can set; each subcommand reads only the fields of the
/// flags in its table.
struct Options {
  unsigned jobs = 1;
  std::optional<SteppingMode> stepping;  // unset = per-spec (event-driven)
  std::vector<std::string> files;
  bool no_builtin = false;
  std::string out;
  bool all = false;
  GenOptions gen;
  explore::ExploreOptions explore;
  std::string report;
};

/// One row of a flag table. The parser calls `set` once per occurrence, so
/// a single-value flag resolves last-wins and an appending one accumulates.
struct Flag {
  const char* name;     // canonical spelling, the one usage() prints
  const char* alias;    // a second accepted spelling, or nullptr
  const char* metavar;  // "" for a switch (set() then gets "")
  bool (*set)(Options&, const std::string& value);  // false refuses the value
};

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

/// A count beyond unsigned is refused rather than truncated.
bool parse_unsigned(const std::string& value, unsigned& out) {
  std::size_t parsed = 0;
  if (!parse_size(value, parsed) || parsed > std::numeric_limits<unsigned>::max()) {
    return false;
  }
  out = static_cast<unsigned>(parsed);
  return true;
}

const Flag kJobs{"-j", "--jobs", "N",
                 [](Options& o, const std::string& v) { return parse_unsigned(v, o.jobs); }};
const Flag kStepping{"--stepping", nullptr, "M", [](Options& o, const std::string& v) {
  // `check` is the self-verifying kCrossCheck mode.
  if (v == "event") {
    o.stepping = SteppingMode::kEventDriven;
  } else if (v == "cycle") {
    o.stepping = SteppingMode::kCycleByCycle;
  } else if (v == "check") {
    o.stepping = SteppingMode::kCrossCheck;
  } else {
    return false;
  }
  return true;
}};
const Flag kFile{"--file", nullptr, "F", [](Options& o, const std::string& v) {
  o.files.push_back(v);
  return true;
}};
const Flag kNoBuiltin{"--no-builtin", nullptr, "", [](Options& o, const std::string&) {
  o.no_builtin = true;
  return true;
}};
const Flag kOut{"--out", "-o", "PATH", [](Options& o, const std::string& v) {
  o.out = v;
  return true;
}};
const Flag kAll{"--all", nullptr, "", [](Options& o, const std::string&) {
  o.all = true;
  return true;
}};
// Strict seed and count: seed-exact reproducibility cannot survive a
// wrapped "-1" or a value cut short at trailing junk ("20x").
const Flag kSeed{"--seed", nullptr, "N", [](Options& o, const std::string& v) {
  std::size_t seed = 0;
  if (!parse_size(v, seed)) return false;
  o.gen.seed = seed;
  return true;
}};
const Flag kCount{"--count", nullptr, "K", [](Options& o, const std::string& v) {
  return parse_unsigned(v, o.gen.count) && o.gen.count > 0;
}};
const Flag kObjective{"--objective", nullptr, "NAME", [](Options& o, const std::string& v) {
  try {
    o.explore.objective.kind = explore::objective_by_name(v);
    return true;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());  // names the known objectives
    return false;
  }
}};
// A NaN cap would prune every candidate and an infinite one has no JSON
// spelling in the report, so only a finite positive area is a cap.
const Flag kAreaCap{"--area-cap", nullptr, "MGE", [](Options& o, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double cap = std::stod(v, &pos);
    if (pos != v.size() || !std::isfinite(cap) || cap <= 0.0) return false;
    o.explore.objective.area_cap_mge = cap;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}};
const Flag kBudget{"--budget", nullptr, "N", [](Options& o, const std::string& v) {
  return parse_size(v, o.explore.budget);
}};
const Flag kCache{"--cache", nullptr, "F", [](Options& o, const std::string& v) {
  o.explore.cache_path = v;
  return true;
}};
const Flag kNoPrune{"--no-prune", nullptr, "", [](Options& o, const std::string&) {
  o.explore.prune = false;
  return true;
}};
const Flag kReport{"--report", nullptr, "F", [](Options& o, const std::string& v) {
  o.report = v;
  return true;
}};
const Flag kFailAfter{"--fail-after", nullptr, "N", [](Options& o, const std::string& v) {
  return parse_size(v, o.explore.fail_after);
}};

/// The one flag grammar: `--flag value`, `--flag=value`, and `-jN` for a
/// one-letter flag. A lone `-` (stdin) and every token not starting with
/// '-' are positionals. Prints the error and returns false on an unknown
/// flag, a missing or empty value, a switch given a value, or a value its
/// setter refuses.
bool parse_flags(const std::vector<std::string>& args, const std::vector<const Flag*>& rows,
                 Options& opts, std::vector<std::string>& positionals) {
  const auto find = [&rows](const std::string& name) -> const Flag* {
    for (const Flag* f : rows) {
      if (name == f->name || (f->alias != nullptr && name == f->alias)) return f;
    }
    return nullptr;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      positionals.push_back(arg);
      continue;
    }
    const std::size_t eq = arg[1] == '-' ? arg.find('=') : std::string::npos;
    const std::string name = arg.substr(0, eq);
    std::optional<std::string> value;
    if (eq != std::string::npos) value = arg.substr(eq + 1);
    const Flag* flag = find(name);
    if (flag == nullptr && arg[1] != '-' && (flag = find(arg.substr(0, 2))) != nullptr) {
      value = arg.substr(2);  // glued one-letter form: -j4
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag '%s'\n", name.c_str());
      return false;
    }
    if (*flag->metavar == '\0') {
      if (value) {
        std::fprintf(stderr, "%s takes no value\n", flag->name);
        return false;
      }
      value.emplace();
    } else {
      if (!value && i + 1 < args.size()) value = args[++i];
      if (!value || value->empty()) {
        std::fprintf(stderr, "missing value for %s %s\n", flag->name, flag->metavar);
        return false;
      }
    }
    if (!flag->set(opts, *value)) {
      std::fprintf(stderr, "invalid value '%s' for %s\n", value->c_str(), flag->name);
      return false;
    }
  }
  return true;
}

/// Populate the process registry from the builtins (unless --no-builtin)
/// and every --file suite. Returns false after printing the error (a bad
/// scenario file is an IO/usage problem, exit 2). Registered file-suite
/// names land in `file_suites`.
bool setup_registry(const Options& opts, std::vector<std::string>& file_suites) {
  if (!opts.no_builtin) {
    register_builtin();
  } else if (opts.files.empty()) {
    std::fprintf(stderr, "%s requires at least one %s\n", kNoBuiltin.name, kFile.name);
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
/// printing the error when a pattern matches no suite.
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

int cmd_list(const char*, const Options& opts, const std::vector<std::string>& globs) {
  std::vector<std::string> file_suites;
  if (!setup_registry(opts, file_suites)) return 2;

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  for (const SuiteSpec& suite : reg.suites()) {
    const auto scenarios = reg.suite_scenarios(suite.name);
    std::vector<const ScenarioSpec*> shown;
    for (const ScenarioSpec* s : scenarios) {
      if (globs.empty()) {
        shown.push_back(s);
        continue;
      }
      for (const std::string& g : globs) {
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

int cmd_run(const char* argv0, const Options& copts, const std::vector<std::string>& globs) {
  std::vector<std::string> file_suites;
  if (!setup_registry(copts, file_suites)) return 2;
  if (globs.empty() && file_suites.empty()) return usage(argv0);

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  // With --file and no globs, the file's suites are the selection.
  const std::vector<const ScenarioSpec*> selection =
      globs.empty() ? suites_selection(reg, file_suites) : reg.select_all(globs);
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

int cmd_emit(const char* argv0, const Options& copts, const std::vector<std::string>& wanted) {
  if (copts.out.empty() || (copts.all && !wanted.empty())) {
    std::fprintf(stderr, "emit needs %s and either %s or a selection\n", kOut.name, kAll.name);
    return usage(argv0);
  }
  std::vector<std::string> file_suites;
  if (!setup_registry(copts, file_suites)) return 2;
  if (!copts.all && wanted.empty() && file_suites.empty()) return usage(argv0);

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  // Resolve suite names/globs against the registry, keeping registration
  // order and deduplicating. With --file and no explicit selection, the
  // file's suites are emitted.
  std::vector<std::string> suites;
  if (copts.all) {
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
  opts.out_dir = copts.out;
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

int cmd_validate(const char*, const Options&, const std::vector<std::string>& args) {
  // No path reads stdin (gen | validate pipelines).
  const std::vector<std::string> paths = args.empty() ? std::vector<std::string>{"-"} : args;
  int rc = 0;  // worst outcome wins: 2 (unreadable, IO) > 1 (invalid content)
  for (const std::string& path : paths) {
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

int cmd_gen(const char* argv0, const Options& opts, const std::vector<std::string>& args) {
  if (!args.empty()) return usage(argv0);
  if (opts.gen.count > kMaxScenariosPerSuite) {
    std::fprintf(stderr, "gen: %s is capped at %zu scenarios per suite\n", kCount.name,
                 kMaxScenariosPerSuite);
    return 2;
  }

  std::string text;
  try {
    text = generate_suite(opts.gen).dump();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gen: internal error: %s\n", e.what());
    return 2;
  }
  if (opts.out.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(opts.out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "gen: cannot open %s for writing\n", opts.out.c_str());
    return 2;
  }
  out << text;
  out.flush();  // surface a full-disk/IO failure before the exit code
  if (!out.good()) {
    std::fprintf(stderr, "gen: write to %s failed\n", opts.out.c_str());
    return 2;
  }
  return 0;
}

int cmd_explore(const char* argv0, const Options& opts, const std::vector<std::string>& args) {
  // The search space is one suite file: either a positional path (`-` is
  // stdin) or --file, but not both — explore does not span suites.
  std::vector<std::string> paths = args;
  paths.insert(paths.end(), opts.files.begin(), opts.files.end());
  if (paths.size() != 1) return usage(argv0);

  explore::ExploreOptions eopts = opts.explore;
  eopts.jobs = opts.jobs;
  eopts.stepping = opts.stepping;
  eopts.log = &std::cerr;

  LoadedSuite suite;
  try {
    suite = load_suite_file(paths[0]);
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

  if (!opts.report.empty()) {
    std::ofstream out(opts.report, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "explore: cannot open %s for writing\n", opts.report.c_str());
      return 2;
    }
    out << explore::report_json(suite, eopts, outcome).dump();
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "explore: write to %s failed\n", opts.report.c_str());
      return 2;
    }
  }

  return outcome.failures > 0 ? 1 : 0;
}

/// A subcommand lists exactly the flags it reads; any other is refused.
struct Subcommand {
  const char* name;
  std::vector<const Flag*> flags;
  const char* operands;  // positional synopsis
  int (*run)(const char* argv0, const Options& opts, const std::vector<std::string>& args);
};

const Subcommand kSubcommands[] = {
    {"list", {&kFile, &kNoBuiltin}, "[glob...]", cmd_list},
    {"run", {&kJobs, &kStepping, &kFile, &kNoBuiltin}, "[glob...]", cmd_run},
    {"emit", {&kJobs, &kStepping, &kFile, &kNoBuiltin, &kOut, &kAll}, "[suite|glob...]",
     cmd_emit},
    {"validate", {}, "[file...|-]", cmd_validate},
    {"gen", {&kSeed, &kCount, &kOut}, "", cmd_gen},
    {"explore",
     {&kJobs, &kStepping, &kFile, &kObjective, &kAreaCap, &kBudget, &kCache, &kNoPrune,
      &kReport, &kFailAfter},
     "<suite.json>", cmd_explore},
};

int usage(const char* argv0) {
  std::string text;
  for (const Subcommand& sub : kSubcommands) {
    std::string line = text.empty() ? "usage: " : "       ";
    line += argv0;
    line += ' ';
    line += sub.name;
    std::vector<std::string> words;
    for (const Flag* f : sub.flags) {
      std::string word = "[";
      word += f->name;
      if (*f->metavar != '\0') {
        word += ' ';
        word += f->metavar;
      }
      words.push_back(word + "]");
    }
    if (*sub.operands != '\0') words.emplace_back(sub.operands);
    for (const std::string& word : words) {
      if (line.size() + 1 + word.size() > 80) {
        text += line + "\n";
        line = "           ";
      }
      line += ' ';
      line += word;
    }
    text += line + "\n";
  }
  std::fprintf(
      stderr,
      "%s"
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
      text.c_str());
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  for (const Subcommand& sub : kSubcommands) {
    if (cmd != sub.name) continue;
    Options opts;
    std::vector<std::string> positionals;
    if (!parse_flags({argv + 2, argv + argc}, sub.flags, opts, positionals)) {
      return usage(argv[0]);
    }
    return sub.run(argv[0], opts, positionals);
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return usage(argv[0]);
}

}  // namespace
}  // namespace tcdm::scenario

int main(int argc, char** argv) { return tcdm::scenario::main_impl(argc, argv); }
