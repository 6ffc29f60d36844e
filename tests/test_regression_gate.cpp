// Regression-gate tests: tolerance comparator edge cases (missing metric,
// new metric, NaN, zero baselines, exact metrics), delta-table rendering,
// and the check_regression CLI contract — including the injected-regression
// case that must exit non-zero naming the offending metric.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "src/analytics/metrics_regression.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using metrics::CompareResult;
using metrics::DiffStatus;
using metrics::MetricsDoc;

MetricsDoc base_doc() {
  MetricsDoc doc;
  doc.suite = "table1";
  doc.add("a/model/peak", 16.0, metrics::kModelRelTol);
  doc.add("a/sim/bw_per_core", 10.0, 0.02);
  doc.add("a/sim/verified", 1.0, metrics::kExactTol);
  return doc;
}

const metrics::MetricDiff& diff_named(const CompareResult& r, const std::string& name) {
  for (const auto& d : r.diffs) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "no diff named " << name;
  static metrics::MetricDiff none;
  return none;
}

TEST(RegressionGate, IdenticalDocumentsPass) {
  const CompareResult r = metrics::compare(base_doc(), base_doc());
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.num_ok, 3u);
  EXPECT_EQ(r.num_out_of_tolerance + r.num_missing + r.num_new + r.num_not_finite, 0u);
}

TEST(RegressionGate, DriftWithinToleranceIsOk) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 10.15;  // +1.5% of a 2% budget
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_TRUE(r.passed());
  EXPECT_NEAR(diff_named(r, "a/sim/bw_per_core").rel_delta, 0.015, 1e-12);
}

TEST(RegressionGate, DriftBeyondToleranceFails) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 9.0;  // -10%
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_out_of_tolerance, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kOutOfTolerance);
}

TEST(RegressionGate, ToleranceComesFromTheBaselineNotTheCurrentDoc) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 9.0;
  cur.metrics["a/sim/bw_per_core"].rel_tol = 0.5;  // current's own claim is ignored
  EXPECT_FALSE(metrics::compare(base_doc(), cur).passed());
}

TEST(RegressionGate, ExactMetricsAllowNoDrift) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/verified"].value = 0.0;  // kernel stopped verifying
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(diff_named(r, "a/sim/verified").status, DiffStatus::kOutOfTolerance);
}

TEST(RegressionGate, MissingMetricFails) {
  MetricsDoc cur = base_doc();
  cur.metrics.erase("a/sim/bw_per_core");
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_missing, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kMissing);
}

TEST(RegressionGate, NewMetricFails) {
  MetricsDoc cur = base_doc();
  cur.add("a/sim/brand_new", 1.0, 0.02);
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_new, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/brand_new").status, DiffStatus::kNew);
}

TEST(RegressionGate, NanInUnrecordedMetricIsReportedAsNonFinite) {
  MetricsDoc cur = base_doc();
  cur.add("a/sim/brand_new", std::nan(""), 0.02);
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_not_finite, 1u);
  EXPECT_EQ(r.num_new, 0u);
  EXPECT_EQ(diff_named(r, "a/sim/brand_new").status, DiffStatus::kNotFinite);
}

TEST(RegressionGate, NanCurrentValueFails) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = std::nan("");
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_not_finite, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kNotFinite);
}

TEST(RegressionGate, ZeroBaselineMatchesOnlyZero) {
  MetricsDoc base;
  base.add("z", 0.0, 0.02);
  MetricsDoc same = base;
  EXPECT_TRUE(metrics::compare(base, same).passed());
  MetricsDoc off;
  off.add("z", 1e-6, 0.02);  // any nonzero is an infinite relative delta
  EXPECT_FALSE(metrics::compare(base, off).passed());
}

TEST(RegressionGate, NonFiniteToleranceFailsInsteadOfPassingVacuously) {
  // NaN/inf budgets must not disable the gate: "NaN <= tol" is false for
  // every comparison, which would report a 100% regression as ok.
  for (double bad_tol : {std::nan(""), static_cast<double>(INFINITY)}) {
    MetricsDoc base = base_doc();
    base.metrics["a/sim/bw_per_core"].rel_tol = bad_tol;
    MetricsDoc cur = base_doc();
    cur.metrics["a/sim/bw_per_core"].value = 5.0;  // -50%
    const CompareResult r = metrics::compare(base, cur);
    EXPECT_FALSE(r.passed());
    EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kOutOfTolerance);
  }
}

TEST(RegressionGate, DeltaTableNamesOffendersAndCounts) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 9.0;
  cur.metrics.erase("a/model/peak");
  const std::string table = metrics::render_delta_table(metrics::compare(base_doc(), cur));
  EXPECT_NE(table.find("a/sim/bw_per_core"), std::string::npos);
  EXPECT_NE(table.find("OUT OF TOLERANCE"), std::string::npos);
  EXPECT_NE(table.find("a/model/peak"), std::string::npos);
  EXPECT_NE(table.find("MISSING"), std::string::npos);
  EXPECT_NE(table.find("1 out of tolerance"), std::string::npos);
  EXPECT_NE(table.find("1 missing"), std::string::npos);
  // Passing rows stay out of the table unless verbose.
  EXPECT_EQ(table.find("a/sim/verified"), std::string::npos);
  const std::string verbose =
      metrics::render_delta_table(metrics::compare(base_doc(), cur), /*verbose=*/true);
  EXPECT_NE(verbose.find("a/sim/verified"), std::string::npos);
}

// ------------------------------------------------------------------- CLI ---

class CheckRegressionCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "regression_gate";
    std::filesystem::create_directories(dir_);
    baseline_path_ = (dir_ / "baseline.json").string();
    current_path_ = (dir_ / "current.json").string();
  }

  int run(std::vector<const char*> args) {
    args.insert(args.begin(), "check_regression");
    return metrics::run_check_cli(static_cast<int>(args.size()), args.data());
  }

  std::filesystem::path dir_;
  std::string baseline_path_;
  std::string current_path_;
};

TEST_F(CheckRegressionCli, CleanTreePassesWithExitZero) {
  base_doc().write_file(baseline_path_);
  base_doc().write_file(current_path_);
  EXPECT_EQ(run({baseline_path_.c_str(), current_path_.c_str()}), 0);
}

TEST_F(CheckRegressionCli, InjectedRegressionExitsNonZero) {
  base_doc().write_file(baseline_path_);
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value *= 0.90;  // perturb a bandwidth figure
  cur.write_file(current_path_);
  EXPECT_EQ(run({baseline_path_.c_str(), current_path_.c_str()}), 1);
}

TEST_F(CheckRegressionCli, SecondPairFailingFailsTheWholeRun) {
  base_doc().write_file(baseline_path_);
  base_doc().write_file(current_path_);
  const std::string bad = (dir_ / "bad.json").string();
  MetricsDoc cur = base_doc();
  cur.metrics.erase("a/model/peak");
  cur.write_file(bad);
  EXPECT_EQ(run({baseline_path_.c_str(), current_path_.c_str(), baseline_path_.c_str(),
                 bad.c_str()}),
            1);
}

TEST_F(CheckRegressionCli, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run({}), 2);                                // no files
  base_doc().write_file(baseline_path_);
  EXPECT_EQ(run({baseline_path_.c_str()}), 2);          // odd file count
  EXPECT_EQ(run({baseline_path_.c_str(), (dir_ / "absent.json").string().c_str()}), 2);
  EXPECT_EQ(run({"--bogus-flag", baseline_path_.c_str(), baseline_path_.c_str()}), 2);
  std::ofstream(dir_ / "garbage.json") << "not json at all";
  EXPECT_EQ(run({baseline_path_.c_str(), (dir_ / "garbage.json").string().c_str()}), 2);
  // A duplicated metric key must not let its last value win unseen.
  std::string text = base_doc().to_json().dump();
  const std::string first = "\"a/model/peak\": {";
  text.insert(text.find(first), "\"a/model/peak\": {\"rel_tol\": 1, \"value\": 0},\n");
  std::ofstream(dir_ / "duplicate.json") << text;
  EXPECT_EQ(run({(dir_ / "duplicate.json").string().c_str(), baseline_path_.c_str()}), 2);
}

}  // namespace
}  // namespace tcdm
