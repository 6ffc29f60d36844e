// simbench self-test: pins the accuracy computation, checks that the
// workload generator is deterministic and emits loadable suites whose
// Table II points match the builtin table2 suite, that every catalog metric
// carries a unit and a direction, and that the catalog and the workloads
// agree with BENCHMARK.json.
//
//   simbench_selftest <path/to/BENCHMARK.json> <scratch dir>
//
// Exits 0 when every check passes; prints each failure to stderr.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "driver/simbench.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/scenario_file.hpp"

namespace {

using simbench::MetricDef;
using tcdm::Json;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAIL: " << what << "\n";
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_mae() {
  // Simulated gains of the Table II pairs as printed by
  // `tcdm_run run 'table2/*'` (rounded to 0.01 %), in paper order.
  const std::vector<double> sim = {165.48, 21.28, 22.28, 16.88, 194.59, 52.99,
                                   52.87,  19.23, 56.30, 71.22, 53.46,  24.35};
  std::vector<double> paper;
  for (const simbench::PaperGain& g : simbench::paper_table2_gains()) paper.push_back(g.gain_pct);
  check(paper.size() == 12, "paper reference has 12 Table II gains");
  check(std::fabs(simbench::mae_pp(sim, paper) - 249.87 / 12.0) < 1e-9,
        "MAE of the pinned Table II gains is 20.8225 pp");
  check(simbench::mae_pp({1.0, -3.0}, {0.0, 0.0}) == 2.0, "MAE takes absolute errors");
  check(simbench::gain_pct(2.0, 3.0) == 50.0, "gain_pct(2, 3) == 50 %");
  check(throws([] { (void)simbench::mae_pp({1.0}, {1.0, 2.0}); }), "MAE rejects unequal lengths");
  check(throws([] { (void)simbench::mae_pp({}, {}); }), "MAE rejects empty series");
  check(throws([] { (void)simbench::gain_pct(0.0, 1.0); }), "gain_pct rejects a zero baseline");
}

std::vector<std::string> scenario_names(const tcdm::scenario::LoadedSuite& s) {
  std::vector<std::string> names;
  for (const auto& sc : s.scenarios) names.push_back(sc.rel);
  return names;
}

tcdm::scenario::LoadedSuite load(const std::filesystem::path& dir, const std::string& tag,
                                 const std::string& text) {
  const std::filesystem::path p = dir / (tag + ".json");
  std::ofstream(p, std::ios::binary) << text;
  return tcdm::scenario::load_suite_file(p.string());
}

void test_generator(const std::filesystem::path& dir) {
  for (const simbench::WorkloadInfo& w : simbench::workloads()) {
    std::vector<std::string> reference_names;
    std::set<std::string> distinct;
    for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 1ULL << 40}) {
      const std::string a = simbench::generate_suite(w, seed);
      check(a == simbench::generate_suite(w, seed),
            std::string(w.name) + ": same seed gives the same bytes");
      distinct.insert(a);
      try {
        const auto suite = load(dir, std::string(w.name) + "-" + std::to_string(seed), a);
        if (reference_names.empty()) reference_names = scenario_names(suite);
        check(!suite.scenarios.empty() && scenario_names(suite) == reference_names,
              std::string(w.name) + ": every seed yields the same scenario set");
      } catch (const std::exception& e) {
        check(false, std::string(w.name) + ": suite loads: " + e.what());
      }
    }
    check(distinct.size() == 4, std::string(w.name) + ": different seeds give different data");
  }
}

/// paper-table2 must be exactly the builtin table2 points: same names,
/// configurations, kernels and problem sizes.
void test_table2_matches_builtin(const std::filesystem::path& dir) {
  tcdm::scenario::register_builtin();
  const tcdm::scenario::ScenarioRegistry& builtin = tcdm::scenario::ScenarioRegistry::instance();
  const auto generated =
      load(dir, "table2-check", simbench::generate_suite(*simbench::find_workload("paper-table2"), 3));
  const auto specs = builtin.suite_scenarios("table2");
  check(specs.size() == generated.scenarios.size() && specs.size() == 24,
        "paper-table2 has the 24 builtin table2 points");
  for (std::size_t i = 0; i < std::min(specs.size(), generated.scenarios.size()); ++i) {
    const auto& g = generated.scenarios[i];
    const tcdm::ClusterConfig cfg = specs[i]->config();
    const auto bk = specs[i]->kernel();
    const auto gk = g.kernel.instantiate(g.config);
    check(specs[i]->rel() == g.rel, "table2 point " + std::to_string(i) + " name " + g.rel);
    check(cfg.to_json().dump_compact() == g.config.to_json().dump_compact(),
          g.rel + ": configuration matches the builtin");
    check(bk->name() == gk->name() && bk->size_desc() == gk->size_desc(),
          g.rel + ": kernel and size match the builtin (" + gk->size_desc() + ")");
    check(specs[i]->opts.max_cycles == g.opts.max_cycles, g.rel + ": cycle budget matches");
  }
}

bool unit_ok(const std::string& u) {
  if (u.empty() || u.size() > 16) return false;
  for (const char c : u) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && std::string("_/%.-").find(c) == std::string::npos) {
      return false;
    }
  }
  return true;
}

void test_catalog(const std::string& benchmark_json) {
  std::set<std::string> names;
  for (const MetricDef& m : simbench::metric_catalog()) {
    check(names.insert(m.name).second, std::string("metric name used once: ") + m.name);
    check(unit_ok(m.unit), std::string(m.name) + ": carries a valid unit");
    check(std::string(m.better) == "higher" || std::string(m.better) == "lower",
          std::string(m.name) + ": carries a direction");
  }

  std::ifstream in(benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  Json doc;
  try {
    doc = Json::parse(text.str());
  } catch (const std::exception& e) {
    check(false, benchmark_json + ": parses: " + e.what());
    return;
  }
  for (const auto& [key, per_layer] : {std::pair{"end_to_end", false}, {"per_layer", true}}) {
    std::set<std::string> declared;
    for (const Json& m : doc.at(key).as_array()) {
      const std::string name = m.at("name").as_string();
      declared.insert(name);
      const MetricDef* def = simbench::find_metric(name);
      check(def != nullptr && def->per_layer == per_layer,
            std::string(key) + " metric " + name + " is emitted by the driver");
      if (def == nullptr) continue;
      check(m.at("unit").as_string() == def->unit, name + ": unit agrees with BENCHMARK.json");
      check(m.at("better").as_string() == def->better,
            name + ": direction agrees with BENCHMARK.json");
    }
    for (const MetricDef& m : simbench::metric_catalog()) {
      if (m.per_layer == per_layer) {
        check(declared.count(m.name) == 1, std::string(m.name) + " is declared in " + key);
      }
    }
  }
  std::set<std::string> declared_workloads;
  for (const Json& w : doc.at("workloads").as_array()) {
    const std::string name = w.at("name").as_string();
    declared_workloads.insert(name);
    const simbench::WorkloadInfo* info = simbench::find_workload(name);
    check(info != nullptr, "workload " + name + " exists in the driver");
    if (info != nullptr) check(w.at("why").as_string() == info->why, name + ": why agrees");
  }
  check(declared_workloads.size() == simbench::workloads().size(),
        "BENCHMARK.json declares every driver workload");
}

void test_tracer() {
  simbench::Tracer t;
  {
    const simbench::ScopedSpan root(t, "scenario", 0);
    { const simbench::ScopedSpan a(t, "child", 0); }
    {
      const simbench::ScopedSpan b(t, "run", 0);
      t.add("step", 10, 0.0);
    }
  }
  const auto self = t.self_times();
  check(t.spans().size() == 3 && t.aggregates().size() == 1, "tracer keeps spans and aggregates");
  check(t.spans()[1].parent == 0 && t.spans()[2].parent == 0 && t.aggregates()[0].parent == 2,
        "tracer links children to the innermost open span");
  double covered = 0.0;
  for (double s : self) covered += s;
  const double root = t.spans()[0].end - t.spans()[0].start;
  check(std::fabs(covered - root) < 1e-12, "self times partition the root span");
  check(throws([&] { t.end(0); }), "closing a span that is not open throws");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: simbench_selftest <BENCHMARK.json> <scratch dir>\n";
    return 2;
  }
  const std::filesystem::path dir = argv[2];
  std::filesystem::create_directories(dir);
  test_mae();
  test_generator(dir);
  test_table2_matches_builtin(dir);
  test_catalog(argv[1]);
  test_tracer();
  if (failures != 0) {
    std::cerr << "selftest: " << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "selftest: all checks passed\n";
  return 0;
}
