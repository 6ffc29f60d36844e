// Metrics-export subsystem: JSON value parse/serialize round trips, the
// versioned tcdm-metrics schema, and file I/O for MetricsDoc.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <fstream>

#include "src/analytics/metrics_export.hpp"
#include "src/common/json.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using metrics::MetricsDoc;

// ------------------------------------------------------------- JSON value --

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e3").as_double(), -12500.0);
  EXPECT_EQ(Json::parse("\"a\\nb\\\"c\\\\d\"").as_string(), "a\nb\"c\\d");
}

TEST(Json, NestedDocumentRoundTrips) {
  const char* text = R"({"arr": [1, 2.5, "three", null, {"k": true}], "obj": {}})";
  const Json doc = Json::parse(text);
  ASSERT_TRUE(doc.is_object());
  const Json::Array& arr = doc.at("arr").as_array();
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_DOUBLE_EQ(arr[1].as_double(), 2.5);
  EXPECT_EQ(arr[2].as_string(), "three");
  EXPECT_TRUE(arr[4].at("k").as_bool());
  // dump -> parse -> dump is a fixed point (keys are sorted, format stable).
  const std::string once = doc.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, NumbersKeepRoundTripPrecision) {
  for (double v : {1.0 / 3.0, 2.3939216832261834, 1e-9, -6844.0, 0.02, 1e300}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_EQ(parsed.as_double(), v);
  }
}

TEST(Json, NonFiniteSerializesAsNullAndReadsBackAsNan) {
  const std::string text = Json(std::nan("")).dump();
  EXPECT_EQ(text, "null\n");
  EXPECT_TRUE(std::isnan(Json::parse(text).as_double()));
  EXPECT_EQ(Json(INFINITY).dump(), "null\n");
}

TEST(Json, DuplicateObjectKeyIsRejected) {
  try {
    (void)Json::parse("{\"a\": {\"k\": 1, \"k\": 2}}");
    ADD_FAILURE() << "a duplicate key must not parse";
  } catch (const JsonError& e) {
    EXPECT_STREQ(e.what(), "JSON parse error at offset 15: duplicate object key \"k\"");
  }
  // The same key in sibling objects is not a duplicate.
  EXPECT_NO_THROW((void)Json::parse("[{\"k\": 1}, {\"k\": 2}]"));
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)Json::parse("[1, 2"), JsonError);
  EXPECT_THROW((void)Json::parse("tru"), JsonError);
  EXPECT_THROW((void)Json::parse("{1: 2}"), JsonError);
}

TEST(Json, NestingBeyondTheDepthCapThrowsInsteadOfCrashing) {
  const auto nested = [](unsigned depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(Json::parse(nested(Json::kMaxDepth)).is_array());
  EXPECT_THROW((void)Json::parse(nested(Json::kMaxDepth + 1)), JsonDepthError);
  // Unbounded recursion used to overflow the stack on this input.
  try {
    (void)Json::parse(std::string(50'000, '['));
    FAIL() << "expected JsonDepthError";
  } catch (const JsonDepthError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"),
              std::string::npos)
        << e.what();
  }
  std::string objects;
  for (unsigned i = 0; i <= Json::kMaxDepth; ++i) objects += "{\"a\": ";
  EXPECT_THROW((void)Json::parse(objects), JsonDepthError);
}

TEST(Json, AccessorKindMismatchThrows) {
  const Json num(3.0);
  EXPECT_THROW((void)num.as_string(), JsonError);
  EXPECT_THROW((void)num.as_object(), JsonError);
  const Json obj = Json::parse("{\"a\": 1}");
  EXPECT_THROW((void)obj.at("missing"), JsonError);
}

// ------------------------------------------------------------ MetricsDoc --

MetricsDoc sample_doc() {
  MetricsDoc doc;
  doc.suite = "table1";
  doc.description = "sample";
  doc.add("mp4spatz4/model/peak", 16.0, metrics::kModelRelTol);
  doc.add("mp4spatz4/gf4/sim/bw_per_core", 13.94, metrics::kSimRelTol);
  doc.add("mp4spatz4/gf4/sim/verified", 1.0, metrics::kExactTol);
  return doc;
}

TEST(MetricsDoc, JsonRoundTripPreservesEverything) {
  const MetricsDoc doc = sample_doc();
  const MetricsDoc back = MetricsDoc::from_json(doc.to_json());
  EXPECT_EQ(back.suite, doc.suite);
  EXPECT_EQ(back.description, doc.description);
  ASSERT_EQ(back.metrics.size(), doc.metrics.size());
  for (const auto& [name, m] : doc.metrics) {
    ASSERT_TRUE(back.metrics.count(name)) << name;
    EXPECT_EQ(back.metrics.at(name).value, m.value) << name;
    EXPECT_EQ(back.metrics.at(name).rel_tol, m.rel_tol) << name;
  }
}

TEST(MetricsDoc, SerializedFormCarriesSchemaVersion) {
  const Json j = sample_doc().to_json();
  EXPECT_EQ(j.at("schema").as_string(), metrics::kSchemaName);
  EXPECT_DOUBLE_EQ(j.at("schema_version").as_double(), metrics::kSchemaVersion);
}

TEST(MetricsDoc, RejectsForeignOrFutureSchemas) {
  Json j = sample_doc().to_json();
  j.set("schema", "somebody-elses-format");
  EXPECT_THROW((void)MetricsDoc::from_json(j), metrics::SchemaError);
  j.set("schema", metrics::kSchemaName);
  j.set("schema_version", metrics::kSchemaVersion + 1);
  EXPECT_THROW((void)MetricsDoc::from_json(j), metrics::SchemaError);
  EXPECT_THROW((void)MetricsDoc::from_json(Json::parse("{}")), metrics::SchemaError);
  EXPECT_THROW((void)MetricsDoc::from_json(Json(3.0)), metrics::SchemaError);
}

TEST(MetricsDoc, RejectsMalformedDocumentsNamingTheOffendingPath) {
  // Baselines are untrusted input: every structural fault is a SchemaError
  // that names where it sits, and keys the schema does not define are
  // refused rather than ignored.
  const struct {
    const char* what;
    std::function<void(Json&)> corrupt;
    const char* path;
  } cases[] = {
      {"foreign schema", [](Json& j) { j.set("schema", "somebody-elses-format"); },
       "schema"},
      {"future version",
       [](Json& j) { j.set("schema_version", metrics::kSchemaVersion + 1); },
       "schema_version"},
      {"missing metrics", [](Json& j) { j.as_object().erase("metrics"); }, "metrics"},
      {"string value",
       [](Json& j) {
         j.as_object()["metrics"].as_object()["mp4spatz4/model/peak"].set("value", "16");
       },
       "metrics/mp4spatz4/model/peak/value"},
      {"stray top-level key", [](Json& j) { j.set("comment", "hand edited"); }, "comment"},
      {"stray metric field",
       [](Json& j) {
         j.as_object()["metrics"].as_object()["mp4spatz4/model/peak"].set("abs_tol", 0.5);
       },
       "metrics/mp4spatz4/model/peak/abs_tol"},
  };
  for (const auto& c : cases) {
    Json j = sample_doc().to_json();
    c.corrupt(j);
    try {
      (void)MetricsDoc::from_json(j);
      ADD_FAILURE() << c.what << ": accepted";
    } catch (const metrics::SchemaError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(std::string(c.path) + ": ", 0), 0u)
          << c.what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.what << ": not a SchemaError: " << e.what();
    }
  }
}

TEST(MetricsDoc, RejectsMetricWithoutValue) {
  Json j = sample_doc().to_json();
  Json broken;
  broken.set("rel_tol", 0.1);  // no value field
  j.as_object()["metrics"].set("broken/metric", std::move(broken));
  EXPECT_THROW((void)MetricsDoc::from_json(j), metrics::SchemaError);
}

TEST(MetricsDoc, RejectsMetricWithoutTolerance) {
  // A dropped rel_tol must not silently default to the loose sim tolerance.
  Json j = sample_doc().to_json();
  Json broken;
  broken.set("value", 1.0);  // no rel_tol field
  j.as_object()["metrics"].set("broken/metric", std::move(broken));
  EXPECT_THROW((void)MetricsDoc::from_json(j), metrics::SchemaError);
}

TEST(MetricsDoc, FileRoundTrip) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "metrics_roundtrip.json").string();
  const MetricsDoc doc = sample_doc();
  doc.write_file(path);
  const MetricsDoc back = MetricsDoc::read_file(path);
  EXPECT_EQ(back.suite, "table1");
  EXPECT_EQ(back.metrics.size(), 3u);
  std::filesystem::remove(path);
  EXPECT_THROW((void)MetricsDoc::read_file(path), std::runtime_error);
}

TEST(MetricsDoc, ReadErrorsNameTheFile) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "metrics_bare_nan.json").string();
  std::ofstream(path) << "{\"schema\": \"tcdm-metrics\", \"metrics\": {\"a\": NaN}}";
  try {
    (void)MetricsDoc::read_file(path);
    ADD_FAILURE() << "a bare NaN must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(path + ": JSON parse error at offset ", 0), 0u)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(MetricsDoc, AddKernelMetricsUsesStableNames) {
  KernelMetrics m;
  m.cycles = 1234;
  m.bw_per_core = 7.5;
  m.fpu_util = 0.5;
  m.gflops_ss = 100.0;
  m.arithmetic_intensity = 0.25;
  m.verified = true;
  MetricsDoc doc;
  doc.add_kernel_metrics("mp4spatz4/gf4/dotp", m);
  EXPECT_DOUBLE_EQ(doc.metrics.at("mp4spatz4/gf4/dotp/cycles").value, 1234.0);
  EXPECT_DOUBLE_EQ(doc.metrics.at("mp4spatz4/gf4/dotp/bw_per_core").value, 7.5);
  EXPECT_DOUBLE_EQ(doc.metrics.at("mp4spatz4/gf4/dotp/verified").value, 1.0);
  // The verified flag must compare exactly, never within tolerance.
  EXPECT_EQ(doc.metrics.at("mp4spatz4/gf4/dotp/verified").rel_tol, metrics::kExactTol);
}

}  // namespace
}  // namespace tcdm
