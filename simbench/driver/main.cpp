// simbench: the simulator benchmark driver.
//
//   simbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]
//
// The workload is generated from the seed as a tcdm-scenarios suite file and
// run through the simulator's public API. --trace 0 measures the end-to-end
// metrics with no instrumentation; --trace 1 runs an untraced reference pass
// and a traced replica pass per round and reports the per-layer split. The
// last line of stdout is one JSON object: correct, attempted, failed and
// metrics. Progress and diagnostics go to stderr.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/simbench.hpp"
#include "src/analytics/power_model.hpp"
#include "src/cluster/cluster_cache.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/scenario/runner.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"

namespace simbench {
namespace {

using tcdm::Cluster;
using tcdm::ClusterCache;
using tcdm::ClusterConfig;
using tcdm::Cycle;
using tcdm::Json;
using tcdm::KernelMetrics;
using tcdm::scenario::ScenarioResult;
using tcdm::scenario::ScenarioSpec;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/simbench-out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "simbench: " << why << "\n"
            << "usage: simbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]\n"
            << "workloads:";
  for (const WorkloadInfo& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    usage(flag + ": expected a non-negative integer, got \"" + v + "\"");
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    usage(flag + ": expected a non-negative integer, got \"" + v + "\"");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + ": missing value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, v));
      if (a.seconds < 1) usage("--seconds: must be at least 1");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace: expected 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown workload \"" + a.workload + "\"");
  if (!have_seed) usage("--seed is required");
  if (a.seconds < 1 || a.trace < 0) usage("--seconds and --trace are required");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path.string());
  return path.string();
}

// -------------------------------------------------------------- set-up ----

/// Everything the timed passes reuse: the registry holding the workload's
/// suite, its scenarios, and one cluster cache per worker, warmed with every
/// cluster shape of the workload.
struct Setup {
  tcdm::scenario::ScenarioRegistry registry;
  std::vector<const ScenarioSpec*> specs;
  std::vector<double> cores;  // cores x clusters per scenario
  std::vector<std::unique_ptr<ClusterCache>> caches;
};

std::unique_ptr<Setup> set_up(const std::string& suite_path, unsigned workers) {
  auto s = std::make_unique<Setup>();
  const std::string suite = tcdm::scenario::register_suite_file(s->registry, suite_path);
  s->specs = s->registry.suite_scenarios(suite);
  if (s->specs.empty()) throw std::runtime_error(suite_path + ": no scenarios");

  // First construction of every cluster and System shape.
  std::set<std::string> cluster_shapes;
  std::set<std::string> system_shapes;
  for (const ScenarioSpec* spec : s->specs) {
    const ClusterConfig cfg = spec->config();
    if (spec->system) {
      const tcdm::SystemConfig sys = spec->system();
      s->cores.push_back(static_cast<double>(cfg.num_cores()) * sys.num_clusters);
      if (system_shapes.insert(sys.to_json().dump_compact() + cfg.to_json().dump_compact())
              .second) {
        const tcdm::System probe(sys, cfg, spec->opts.sim);
      }
    } else {
      s->cores.push_back(cfg.num_cores());
      cluster_shapes.insert(ClusterCache::cache_key(cfg, spec->opts.sim));
    }
  }
  for (unsigned w = 0; w < workers; ++w) {
    s->caches.push_back(std::make_unique<ClusterCache>(std::max<std::size_t>(1, cluster_shapes.size())));
    for (const ScenarioSpec* spec : s->specs) {
      if (!spec->system) (void)s->caches.back()->acquire(spec->config(), spec->opts.sim);
    }
  }
  return s;
}

// ------------------------------------------------------ untraced passes ----

struct Pass {
  std::vector<ScenarioResult> results;
  std::vector<double> scenario_s;  // host seconds of each scenario
  double core_cycles = 0.0;
};

/// One closed-loop pass over every scenario: `workers` threads each take the
/// next scenario as soon as they finish one.
Pass run_pass(Setup& s, unsigned workers) {
  const std::size_t n = s.specs.size();
  Pass p;
  p.results.resize(n);
  p.scenario_s.resize(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&](unsigned w) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const double t0 = now_s();
      p.results[i] = tcdm::scenario::run_scenario(*s.specs[i], 0, {}, s.caches[w].get());
      p.scenario_s[i] = now_s() - t0;
    }
  };
  if (workers <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work, w);
    for (std::thread& t : pool) t.join();
  }
  for (std::size_t i = 0; i < n; ++i) {
    p.core_cycles += static_cast<double>(p.results[i].metrics.cycles) * s.cores[i];
  }
  return p;
}

bool same_fingerprint(const KernelMetrics& a, const KernelMetrics& b) {
  return a.cycles == b.cycles && a.flops == b.flops && a.bytes == b.bytes &&
         a.noc_bytes == b.noc_bytes && a.verified == b.verified;
}

/// Paper accuracy over whichever Table II pairs `results` holds (names
/// "<preset>/<variant>/<kernel>"); throws if it holds none or a pair is
/// incomplete.
double paper_mae(const std::vector<ScenarioResult>& results) {
  std::map<std::string, double> fpc;
  for (const ScenarioResult& r : results) fpc[r.rel] = r.metrics.flops_per_cycle;
  std::vector<double> sim;
  std::vector<double> paper;
  for (const PaperGain& g : paper_table2_gains()) {
    const std::string base = std::string(g.preset) + "/baseline/" + g.kernel;
    const std::string design = std::string(g.preset) + "/" + g.design + "/" + g.kernel;
    const bool has_base = fpc.count(base) != 0;
    if (has_base != (fpc.count(design) != 0)) throw std::runtime_error("incomplete pair " + base);
    if (!has_base) continue;
    sim.push_back(gain_pct(fpc.at(base), fpc.at(design)));
    paper.push_back(g.gain_pct);
  }
  return mae_pp(sim, paper);
}

// --------------------------------------------------------- traced passes ----

/// FNV-1a over a statistics snapshot (names and value bits).
void hash_stats(const tcdm::StatsRegistry& stats, std::uint64_t& h) {
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [name, value] : stats.snapshot()) {
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
}

/// Simulated counts per layer, summed over the clusters of a scenario.
using Counts = std::map<std::string, double>;

struct CounterSum {
  const char* metric;
  const char* suffix;  // summed over every stats counter ending in it
};
const CounterSum kCounterSums[] = {
    {"spatz.vfpu_busy_cycles", ".vfpu.busy_cycles"},
    {"spatz.chain_stall_cycles", ".vfpu.chain_stall_cycles"},
    {"spatz.vlsu_beats", ".vlsu.beats"},
    {"spatz.vlsu_issue_stall_cycles", ".vlsu.issue_stall_cycles"},
    {"spatz.viq_stall_cycles", ".snitch.stall_viq_cycles"},
    {"spatz.barrier_wait_cycles", ".snitch.barrier_wait_cycles"},
    {"burst.bursts_sent", ".sender.bursts_sent"},
    {"burst.burst_words", ".sender.burst_words"},
    {"burst.narrow_remote_words", ".sender.narrow_remote_words"},
    {"burst.store_bursts_sent", ".sender.store_bursts_sent"},
    {"burst.strided_bursts_sent", ".sender.strided_bursts_sent"},
    {"burst.bm_beats_merged", ".bm.beats_merged"},
    {"burst.bm_fifo_full_events", ".bm.fifo_full_events"},
    {"interconnect.req_sent", "network.req_sent"},
    {"interconnect.req_hop_words", "network.req_hop_words"},
    {"interconnect.rsp_beats", "network.rsp_beats"},
    {"interconnect.egress_blocked_cycles", "network.egress_blocked_cycles"},
    {"memory.bank_reads", ".reads"},
    {"memory.bank_writes", ".writes"},
    {"memory.conflict_cycles", ".conflict_cycles"},
    {"sim.cycles_skipped", "sim.cycles_skipped"},
    {"sim.cycles_simulated", "sim.cycles_simulated"},
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void add_counts(const tcdm::StatsRegistry& stats, Counts& c) {
  for (const auto& [name, value] : stats.snapshot()) {
    // Bank counters are "tileT.bankB.*"; ".reads"/".writes" match nothing else.
    for (const CounterSum& cs : kCounterSums) {
      if (ends_with(name, cs.suffix)) c[cs.metric] += value;
    }
  }
}

/// What the untraced reference run of one scenario produced.
struct Reference {
  std::uint64_t stats_hash = 1469598103934665603ULL;
  Cycle cycles = 0;
  std::string error;
};

/// Scenario error rule of tcdm::scenario::run_scenario.
std::string outcome_error(const ScenarioSpec& spec, const KernelMetrics& m) {
  if (m.timed_out) return "timed out after " + std::to_string(m.cycles) + " cycles";
  if (spec.opts.verify && spec.expect_verified && !m.verified) {
    return "golden verification failed";
  }
  return {};
}

/// Untraced run of one scenario, exactly as run_scenario does it, keeping
/// the cluster(s) to fingerprint their statistics. Adds the run's host time
/// (without the fingerprint) to `seconds`.
Reference reference_run(const ScenarioSpec& spec, ClusterCache& cache, double& seconds) {
  Reference ref;
  const double t0 = now_s();
  try {
    const ClusterConfig cfg = spec.config();
    if (spec.system) {
      tcdm::System system(spec.system(), cfg, spec.opts.sim);
      std::vector<std::unique_ptr<tcdm::Kernel>> kernels;
      for (unsigned c = 0; c < system.num_clusters(); ++c) kernels.push_back(spec.kernel());
      const KernelMetrics m = tcdm::run_system_kernel(system, kernels, spec.opts);
      (void)tcdm::estimate_system_power(system, m.cycles, cfg.freq_tt_mhz);
      seconds += now_s() - t0;
      ref.cycles = m.cycles;
      ref.error = outcome_error(spec, m);
      for (unsigned c = 0; c < system.num_clusters(); ++c) {
        hash_stats(system.cluster(c).stats(), ref.stats_hash);
      }
    } else {
      const std::unique_ptr<tcdm::Kernel> kernel = spec.kernel();
      Cluster& cluster = cache.acquire(cfg, spec.opts.sim);
      const KernelMetrics m = tcdm::run_kernel_on(cluster, *kernel, spec.opts);
      (void)tcdm::estimate_power(cluster, m.cycles, cfg.freq_tt_mhz);
      seconds += now_s() - t0;
      ref.cycles = m.cycles;
      ref.error = outcome_error(spec, m);
      hash_stats(cluster.stats(), ref.stats_hash);
    }
  } catch (const std::exception& e) {
    seconds += now_s() - t0;
    ref.error = e.what();
  }
  return ref;
}

/// Stepping-protocol tallies of one replica run.
struct StepTally {
  std::uint64_t steps = 0, probes = 0, skips = 0;
  double step_s = 0.0, probe_s = 0.0, skip_s = 0.0;
};

/// Cluster::run() in its default event-driven mode, rebuilt from the public
/// skip protocol of cluster.hpp: step() until a cycle leaves the memory
/// phase idle, then next_event(), and skip_to() the event capped by the
/// watchdog deadline and the cycle budget. Times each kind of call. Returns
/// the RunOutcome run() would.
tcdm::RunOutcome replica_run(Cluster& c, Cycle max_cycles, const Tracer& t, StepTally& tally) {
  if (c.stepping() != tcdm::SteppingMode::kEventDriven) {
    throw std::invalid_argument("traced replica needs event-driven stepping");
  }
  tcdm::RunOutcome out;
  const Cycle start = c.now();
  const Cycle budget_end = max_cycles > tcdm::kNoCycle - start ? tcdm::kNoCycle : start + max_cycles;
  double burst_start = t.now();
  while (c.now() < budget_end) {
    ++tally.steps;
    if (c.step()) {
      out.all_halted = true;
      break;
    }
    const Cycle now = c.now();
    if (now >= budget_end || c.mem_phase_active()) continue;

    const double probe_start = t.now();
    tally.step_s += probe_start - burst_start;
    const Cycle event = c.next_event();
    ++tally.probes;
    burst_start = t.now();
    tally.probe_s += burst_start - probe_start;
    const Cycle jump_to = std::min(std::min(event, c.watchdog_deadline()), budget_end);
    if (jump_to <= now) continue;
    c.skip_to(jump_to);
    ++tally.skips;
    const double skip_end = t.now();
    tally.skip_s += skip_end - burst_start;
    burst_start = skip_end;
  }
  tally.step_s += t.now() - burst_start;
  out.cycles = c.now() - start;
  return out;
}

/// What the traced replica of one scenario produced.
struct Replica {
  std::uint64_t stats_hash = 1469598103934665603ULL;
  Cycle cycles = 0;
  std::string error;
  Counts counts;
};

/// Traced replica of one scenario: the same calls as reference_run, each
/// inside a span named after the layer it enters, with Cluster::run()
/// replaced by replica_run. The fingerprint and counts are taken after the
/// scenario span closes, so they are not part of the traced pass.
Replica traced_run(const ScenarioSpec& spec, std::uint32_t id, ClusterCache& cache,
                   Tracer& t) {
  Replica rep;
  std::optional<tcdm::System> system;
  Cluster* cluster = nullptr;
  try {
    const ScopedSpan root(t, "scenario", id);
    ClusterConfig cfg;
    std::optional<tcdm::SystemConfig> syscfg;
    std::vector<std::unique_ptr<tcdm::Kernel>> kernels;
    {
      const ScopedSpan span(t, "scenario.prepare", id);
      cfg = spec.config();
      if (spec.system) syscfg = spec.system();
      const unsigned n = syscfg ? syscfg->num_clusters : 1;
      for (unsigned c = 0; c < n; ++c) kernels.push_back(spec.kernel());
    }
    KernelMetrics m;
    if (syscfg) {
      {
        const ScopedSpan span(t, "system.build", id);
        system.emplace(*syscfg, cfg, spec.opts.sim);
      }
      {
        const ScopedSpan span(t, "kernels.setup", id);
        system->set_watchdog_window(spec.opts.watchdog_window);
        for (unsigned c = 0; c < system->num_clusters(); ++c) kernels[c]->setup(system->cluster(c));
      }
      tcdm::RunOutcome out;
      {
        const ScopedSpan span(t, "system.run", id);
        out = system->run(spec.opts.max_cycles);
      }
      {
        // The aggregate reads of run_system_kernel: total_flops() and
        // traffic_bytes() walk every cluster's statistics registry.
        const ScopedSpan span(t, "analytics.metrics", id);
        m.clusters = system->num_clusters();
        m.cycles = out.cycles;
        m.timed_out = !out.all_halted;
        m.flops = system->total_flops();
        for (unsigned c = 0; c < m.clusters; ++c) {
          m.bytes += kernels[c]->traffic_bytes(system->cluster(c));
        }
        m.noc_bytes = system->noc_bytes_transferred();
      }
      {
        const ScopedSpan span(t, "kernels.verify", id);
        bool ok = true;
        if (spec.opts.verify) {
          ok = system->dma_checksums_ok();
          for (unsigned c = 0; c < m.clusters; ++c) {
            ok = kernels[c]->verify(system->cluster(c)) && ok;
          }
        }
        m.verified = ok;
      }
      {
        const ScopedSpan span(t, "analytics.power", id);
        (void)tcdm::estimate_system_power(*system, m.cycles, cfg.freq_tt_mhz);
      }
    } else {
      {
        const ScopedSpan span(t, "cluster.acquire", id);
        cluster = &cache.acquire(cfg, spec.opts.sim);
      }
      {
        const ScopedSpan span(t, "kernels.setup", id);
        cluster->set_watchdog_window(spec.opts.watchdog_window);
        kernels[0]->setup(*cluster);
      }
      tcdm::RunOutcome out;
      {
        const ScopedSpan span(t, "cluster.run", id);
        StepTally tally;
        out = replica_run(*cluster, spec.opts.max_cycles, t, tally);
        t.add("cluster.step", tally.steps, tally.step_s);
        t.add("cluster.probe", tally.probes, tally.probe_s);
        t.add("cluster.skip", tally.skips, tally.skip_s);
        rep.counts["cluster.steps"] = static_cast<double>(tally.steps);
        rep.counts["cluster.probes"] = static_cast<double>(tally.probes);
        rep.counts["cluster.skips"] = static_cast<double>(tally.skips);
        rep.counts["cluster.stepped_core_cycles"] =
            static_cast<double>(tally.steps) * cfg.num_cores();
      }
      {
        // The aggregate reads of run_kernel_on (registry walks).
        const ScopedSpan span(t, "analytics.metrics", id);
        m.cycles = out.cycles;
        m.timed_out = !out.all_halted;
        m.flops = cluster->total_flops();
        m.bytes = kernels[0]->traffic_bytes(*cluster);
      }
      {
        const ScopedSpan span(t, "kernels.verify", id);
        m.verified = spec.opts.verify ? kernels[0]->verify(*cluster) : true;
      }
      {
        const ScopedSpan span(t, "analytics.power", id);
        (void)tcdm::estimate_power(*cluster, m.cycles, cfg.freq_tt_mhz);
      }
    }
    rep.cycles = m.cycles;
    rep.error = outcome_error(spec, m);
    rep.counts["cluster.cycles"] = static_cast<double>(m.cycles);
    rep.counts["system.noc_bytes"] = m.noc_bytes;
  } catch (const std::exception& e) {
    rep.error = e.what();
    return rep;
  }
  if (system) {
    for (unsigned c = 0; c < system->num_clusters(); ++c) {
      hash_stats(system->cluster(c).stats(), rep.stats_hash);
      add_counts(system->cluster(c).stats(), rep.counts);
    }
  } else {
    hash_stats(cluster->stats(), rep.stats_hash);
    add_counts(cluster->stats(), rep.counts);
    // Every step() call of the replica is one simulated cycle.
    if (rep.counts["cluster.steps"] != rep.counts["sim.cycles_simulated"]) {
      rep.error = "replica step() calls disagree with sim.cycles_simulated";
    }
  }
  return rep;
}

// ----------------------------------------------------------------- runs ----

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void fail(const std::string& what) {
    failed += 1;
    std::cerr << "simbench: FAIL " << what << "\n";
  }
};

/// Run passes until another one would not fit in `seconds` (at least one).
template <typename Fn>
void for_passes(double seconds, Fn&& one_pass) {
  const double start = now_s();
  double last = 0.0;
  do {
    const double t0 = now_s();
    one_pass();
    last = now_s() - t0;
  } while (now_s() - start + last <= seconds);
}

std::filesystem::path suite_file(const Args& a, const std::string& tag) {
  return std::filesystem::path(a.out_dir) /
         (a.workload + "-seed" + std::to_string(a.seed) + tag + ".json");
}

/// kSetupReps set-ups, timed; returns the last one for the passes.
std::unique_ptr<Setup> timed_setups(const std::string& path, unsigned workers,
                                    std::vector<double>& times) {
  std::unique_ptr<Setup> s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.reset();
    const double t0 = now_s();
    s = set_up(path, workers);
    times.push_back(now_s() - t0);
  }
  return s;
}

/// Peak resident memory of this program image (VmHWM). Unlike getrusage's
/// ru_maxrss it restarts at exec, so a launcher's memory does not leak in.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

Result run_untraced(const Args& a, const WorkloadInfo& w, const std::string& path) {
  Result res;
  std::vector<double> setup_times;
  std::unique_ptr<Setup> s = timed_setups(path, w.workers, setup_times);

  // Each pass is checked against the first as it ends and then dropped, so
  // the run's memory does not grow with the number of passes.
  const std::size_t n = s->specs.size();
  std::optional<Pass> first;
  std::vector<double> best;  // each scenario's fastest time over the passes
  std::size_t passes = 0;
  for_passes(a.seconds, [&] {
    Pass p = run_pass(*s, w.workers);
    if (!first) best = p.scenario_s;
    for (std::size_t i = 0; i < n; ++i) {
      const ScenarioResult& r = p.results[i];
      res.attempted += 1;
      if (!r.ok()) {
        res.fail(r.name + ": " + r.error);
      } else if (first && !same_fingerprint(r.metrics, first->results[i].metrics)) {
        res.fail(r.name + ": pass " + std::to_string(passes) + " diverges from pass 0");
      }
      best[i] = std::min(best[i], p.scenario_s[i]);
    }
    if (!first) first = std::move(p);
    ++passes;
  });
  // Throughput over each scenario's fastest run. On a shared host the same
  // scenario's time varies by up to 1.8x within one run as neighbours come
  // and go; its fastest of the passes is what the code, not the host, sets.
  double best_sum = 0.0;
  for (const double b : best) best_sum += b;
  const double core_cycles_per_s = first->core_cycles / best_sum;
  std::cerr << "simbench: " << w.name << " " << passes << " pass(es) of " << n
            << " scenarios; " << core_cycles_per_s << " core-cycles/s over per-scenario best\n";

  // Accuracy: the workload's own Table II pairs, or else the MP4Spatz4
  // column run untimed after the passes.
  std::vector<ScenarioResult> anchor = first->results;
  if (std::string(w.name) != "paper-table2") {
    const std::string anchor_path =
        write_text(suite_file(a, "-anchor"), generate_table2_suite("paper_anchor", a.seed, true));
    tcdm::scenario::ScenarioRegistry reg;
    const std::string suite = tcdm::scenario::register_suite_file(reg, anchor_path);
    ClusterCache cache;
    anchor.clear();
    for (const ScenarioSpec* spec : reg.suite_scenarios(suite)) {
      anchor.push_back(tcdm::scenario::run_scenario(*spec, 0, {}, &cache));
      res.attempted += 1;
      if (!anchor.back().ok()) res.fail(anchor.back().name + ": " + anchor.back().error);
    }
  }
  const double mae = paper_mae(anchor);
  const double rss = peak_rss_mb();

  res.metrics = {
      {"core_cycles_per_s", core_cycles_per_s},
      {"setup_s", median(setup_times)},
      {"peak_rss_mb", rss},
      {"ok_ratio", 1.0 - static_cast<double>(res.failed) / static_cast<double>(res.attempted)},
      {"paper_gain_mae_pp", mae},
  };
  return res;
}

Result run_traced(const Args& a, const WorkloadInfo& w, const std::string& path) {
  Result res;
  // The traced run is serial: one worker, one cache.
  const std::unique_ptr<Setup> s = set_up(path, 1);
  ClusterCache& cache = *s->caches[0];
  const std::size_t n = s->specs.size();

  Tracer tracer;
  Json::Array counts_dump;
  Counts first_pass;
  double reference_s = 0.0;
  std::size_t acquire_hits = 0, acquire_misses = 0;
  int rounds = 0;
  for_passes(a.seconds, [&] {
    std::vector<Reference> refs;
    for (std::size_t i = 0; i < n; ++i) refs.push_back(reference_run(*s->specs[i], cache, reference_s));
    const std::size_t hits0 = cache.hits(), misses0 = cache.misses();
    Counts pass_counts;
    for (std::size_t i = 0; i < n; ++i) {
      const ScenarioSpec& spec = *s->specs[i];
      const auto id = static_cast<std::uint32_t>(rounds * n + i);
      const Replica rep = traced_run(spec, id, cache, tracer);
      res.attempted += 1;
      if (!refs[i].error.empty()) {
        res.fail(spec.name + ": " + refs[i].error);
      } else if (!rep.error.empty()) {
        res.fail(spec.name + " (traced): " + rep.error);
      } else if (rep.cycles != refs[i].cycles || rep.stats_hash != refs[i].stats_hash) {
        res.fail(spec.name + ": traced replica diverges from Cluster::run (" +
                 std::to_string(rep.cycles) + " vs " + std::to_string(refs[i].cycles) +
                 " cycles)");
      }
      Json c;
      c.set("scenario", id);
      c.set("name", spec.name);
      for (const auto& [k, v] : rep.counts) {
        c.set(k, v);
        pass_counts[k] += v;
      }
      counts_dump.push_back(std::move(c));
    }
    acquire_hits += cache.hits() - hits0;
    acquire_misses += cache.misses() - misses0;
    if (rounds == 0) {
      first_pass = pass_counts;
    } else if (pass_counts != first_pass) {
      res.attempted += 1;
      res.fail("simulated counts of round " + std::to_string(rounds) + " differ from round 0");
    }
    ++rounds;
  });

  // Host time per layer, per pass.
  std::map<std::string, double> dur;
  double other = 0.0;
  const std::vector<double> self = tracer.self_times();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& sp = tracer.spans()[i];
    dur[sp.name] += sp.end - sp.start;
    if (sp.name == "scenario") other += self[i];
  }
  for (const Tracer::Aggregate& ag : tracer.aggregates()) dur[ag.name] += ag.total;
  for (auto& [name, v] : dur) v /= rounds;
  other /= rounds;
  const double pass_s = dur["scenario"];

  const std::filesystem::path dump_path = suite_file(a, "-trace");
  write_text(dump_path, tracer.dump(Json(std::move(counts_dump))));
  std::cerr << "simbench: " << w.name << " " << rounds << " traced round(s) of " << n
            << " scenarios; spans in " << dump_path.string() << "\n";

  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  Counts& c = first_pass;
  res.metrics = {
      {"scenario.traced_pass_s", pass_s},
      {"scenario.prepare_s", dur["scenario.prepare"]},
      {"scenario.other_s", other},
      {"scenario.other_share", ratio(other, pass_s)},
      {"cluster.acquire_s", dur["cluster.acquire"]},
      {"cluster.cache_hit_ratio",
       ratio(static_cast<double>(acquire_hits),
             static_cast<double>(acquire_hits + acquire_misses))},
      {"cluster.run_s", dur["cluster.run"]},
      {"cluster.step_s", dur["cluster.step"]},
      {"cluster.ns_per_core_cycle", ratio(dur["cluster.step"] * 1e9, c["cluster.stepped_core_cycles"])},
      {"cluster.probe_s", dur["cluster.probe"]},
      {"cluster.skip_s", dur["cluster.skip"]},
      {"kernels.setup_s", dur["kernels.setup"]},
      {"kernels.verify_s", dur["kernels.verify"]},
      {"analytics.metrics_s", dur["analytics.metrics"]},
      {"analytics.power_s", dur["analytics.power"]},
      {"system.build_s", dur["system.build"]},
      {"system.run_s", dur["system.run"]},
      {"trace.overhead_ratio", ratio(pass_s * rounds, reference_s) - 1.0},
      {"cluster.steps", c["sim.cycles_simulated"]},
      {"cluster.probes", c["cluster.probes"]},
      {"cluster.skips", c["cluster.skips"]},
      {"cluster.probe_yield", ratio(c["cluster.skips"], c["cluster.probes"])},
      {"cluster.skip_share",
       ratio(c["sim.cycles_skipped"], c["sim.cycles_skipped"] + c["sim.cycles_simulated"])},
      {"cluster.cycles", c["cluster.cycles"]},
  };
  for (const CounterSum& cs : kCounterSums) {
    if (find_metric(cs.metric) != nullptr) res.metrics.emplace_back(cs.metric, c[cs.metric]);
  }
  res.metrics.emplace_back("burst.coverage",
                           ratio(c["burst.burst_words"],
                                 c["burst.burst_words"] + c["burst.narrow_remote_words"]));
  res.metrics.emplace_back("memory.conflict_per_access",
                           ratio(c["memory.conflict_cycles"],
                                 c["memory.bank_reads"] + c["memory.bank_writes"]));
  res.metrics.emplace_back("system.noc_bytes", c["system.noc_bytes"]);

  return res;
}

/// The result line: every metric of the mode, each with its catalog unit.
std::string result_line(const Result& r, bool per_layer) {
  Json metrics = Json::Object{};
  std::set<std::string> emitted;
  for (const auto& [name, value] : r.metrics) {
    const MetricDef* def = find_metric(name);
    if (def == nullptr || def->per_layer != per_layer || !emitted.insert(name).second) {
      throw std::logic_error("metric " + name + " is not a catalog metric of this mode");
    }
    Json m;
    m.set("value", value);
    m.set("unit", def->unit);
    metrics.set(name, std::move(m));
  }
  for (const MetricDef& def : metric_catalog()) {
    if (def.per_layer == per_layer && emitted.count(def.name) == 0) {
      throw std::logic_error(std::string("metric ") + def.name + " was not measured");
    }
  }
  Json out;
  out.set("correct", r.failed == 0);
  out.set("attempted", static_cast<unsigned long long>(r.attempted));
  out.set("failed", static_cast<unsigned long long>(r.failed));
  out.set("metrics", std::move(metrics));
  return out.dump_compact();
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const WorkloadInfo& w = *find_workload(a.workload);
  std::filesystem::create_directories(a.out_dir);
  const std::string path = write_text(suite_file(a, ""), generate_suite(w, a.seed));
  const Result r = a.trace == 1 ? run_traced(a, w, path) : run_untraced(a, w, path);
  std::cout << result_line(r, a.trace == 1) << "\n";
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  try {
    return simbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "simbench: error: " << e.what() << "\n";
    return 1;
  }
}
