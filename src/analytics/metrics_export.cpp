#include "src/analytics/metrics_export.hpp"

#include <fstream>
#include <set>
#include <sstream>

namespace tcdm::metrics {

void MetricsDoc::add(const std::string& name, double value, double rel_tol) {
  metrics[name] = Metric{value, rel_tol};
}

void MetricsDoc::add_kernel_metrics(const std::string& prefix, const KernelMetrics& m,
                                    double sim_tol) {
  add(prefix + "/cycles", static_cast<double>(m.cycles), sim_tol);
  add(prefix + "/bw_per_core", m.bw_per_core, sim_tol);
  add(prefix + "/fpu_util", m.fpu_util, sim_tol);
  add(prefix + "/gflops_ss", m.gflops_ss, sim_tol);
  add(prefix + "/arithmetic_intensity", m.arithmetic_intensity, sim_tol);
  add(prefix + "/verified", m.verified ? 1.0 : 0.0, kExactTol);
}

Json MetricsDoc::to_json() const {
  Json::Object metric_objs;
  for (const auto& [name, m] : metrics) {
    Json entry;
    entry.set("value", m.value);
    entry.set("rel_tol", m.rel_tol);
    metric_objs[name] = std::move(entry);
  }
  Json doc;
  doc.set("schema", kSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("suite", suite);
  doc.set("description", description);
  doc.set("metrics", Json(std::move(metric_objs)));
  return doc;
}

MetricsDoc MetricsDoc::from_json(const Json& j) {
  if (!j.is_object()) throw SchemaError("metrics document is not a JSON object");
  const std::string schema = j.get("schema", std::string());
  if (schema != kSchemaName) {
    throw SchemaError("unknown schema \"" + schema + "\" (expected \"" + kSchemaName +
                      "\")");
  }
  const double version = j.get("schema_version", 0.0);
  if (version != kSchemaVersion) {
    std::ostringstream msg;
    msg << "unsupported schema_version " << version << " (expected " << kSchemaVersion
        << ")";
    throw SchemaError(msg.str());
  }
  MetricsDoc doc;
  doc.suite = j.get("suite", std::string());
  doc.description = j.get("description", std::string());
  for (const auto& [name, entry] : j.at("metrics").as_object()) {
    if (!entry.is_object() || !entry.contains("value")) {
      throw SchemaError("metric \"" + name + "\" has no value field");
    }
    // The writer always emits rel_tol; silently defaulting a hand-edited
    // baseline to the loose sim tolerance would quietly widen the gate.
    if (!entry.contains("rel_tol")) {
      throw SchemaError("metric \"" + name + "\" has no rel_tol field");
    }
    doc.metrics[name] = Metric{entry.at("value").as_double(),
                               entry.at("rel_tol").as_double()};
  }
  return doc;
}

void MetricsDoc::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << to_json().dump();
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

MetricsDoc MetricsDoc::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return from_json(Json::parse(buf.str()));
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

// ------------------------------------------- full-result serialization ----

namespace {

/// Strict field-by-field reader: every listed field must be present, no
/// extras may appear. Shared by the metrics and power parsers so their
/// error convention cannot drift.
class FieldReader {
 public:
  FieldReader(const Json& j, const std::string& path) : j_(j), path_(path) {
    if (!j.is_object()) throw SchemaError(path + ": expected an object");
  }

  void str(const char* name, std::string& out) {
    const Json& v = field(name);
    if (!v.is_string()) throw SchemaError(path_ + "/" + name + ": expected a string");
    out = v.as_string();
  }
  void num(const char* name, double& out) {
    const Json& v = field(name);
    if (!v.is_number() && !v.is_null()) {  // null round-trips a NaN metric
      throw SchemaError(path_ + "/" + name + ": expected a number");
    }
    out = v.as_double();
  }
  void boolean(const char* name, bool& out) {
    const Json& v = field(name);
    if (!v.is_bool()) throw SchemaError(path_ + "/" + name + ": expected a bool");
    out = v.as_bool();
  }
  template <typename UInt>
  void uint(const char* name, UInt& out) {
    const Json& v = field(name);
    if (!v.is_uint(9007199254740992.0)) {  // 2^53: exact-integer range
      throw SchemaError(path_ + "/" + name + ": expected a non-negative integer");
    }
    out = static_cast<UInt>(v.as_double());
  }

  /// Optional fields (written only off-default, e.g. the system dimension):
  /// absent keys keep `out` untouched but still count as seen for finish().
  template <typename UInt>
  void opt_uint(const char* name, UInt& out) {
    if (j_.contains(name)) uint(name, out);
    seen_.insert(name);
  }
  void opt_num(const char* name, double& out) {
    if (j_.contains(name)) num(name, out);
    seen_.insert(name);
  }

  /// Call after reading every field: rejects unknown keys by name.
  void finish() const {
    for (const auto& [key, val] : j_.as_object()) {
      (void)val;
      if (seen_.count(key) == 0) {
        throw SchemaError(path_ + "/" + key + ": unknown field");
      }
    }
  }

 private:
  const Json& field(const char* name) {
    seen_.insert(name);
    if (!j_.contains(name)) {
      throw SchemaError(path_ + "/" + name + ": required field missing");
    }
    return j_.at(name);
  }

  const Json& j_;
  const std::string path_;
  std::set<std::string> seen_;
};

}  // namespace

Json kernel_metrics_to_json(const KernelMetrics& m) {
  Json j;
  j.set("config", m.config);
  j.set("kernel", m.kernel);
  j.set("size", m.size);
  j.set("cycles", static_cast<unsigned long long>(m.cycles));
  j.set("flops", m.flops);
  j.set("bytes", m.bytes);
  j.set("fpu_util", m.fpu_util);
  j.set("flops_per_cycle", m.flops_per_cycle);
  j.set("gflops_ss", m.gflops_ss);
  j.set("gflops_tt", m.gflops_tt);
  j.set("bw_bytes_per_cycle", m.bw_bytes_per_cycle);
  j.set("bw_per_core", m.bw_per_core);
  j.set("arithmetic_intensity", m.arithmetic_intensity);
  j.set("verified", m.verified);
  j.set("timed_out", m.timed_out);
  // System dimension, off-default only: cluster-run documents stay
  // byte-identical to the pre-system-layer writer.
  if (m.clusters != 1) j.set("clusters", m.clusters);
  if (m.noc_bytes != 0.0) j.set("noc_bytes", m.noc_bytes);
  return j;
}

KernelMetrics kernel_metrics_from_json(const Json& j, const std::string& path) {
  FieldReader r(j, path);
  KernelMetrics m;
  r.str("config", m.config);
  r.str("kernel", m.kernel);
  r.str("size", m.size);
  r.uint("cycles", m.cycles);
  r.num("flops", m.flops);
  r.num("bytes", m.bytes);
  r.num("fpu_util", m.fpu_util);
  r.num("flops_per_cycle", m.flops_per_cycle);
  r.num("gflops_ss", m.gflops_ss);
  r.num("gflops_tt", m.gflops_tt);
  r.num("bw_bytes_per_cycle", m.bw_bytes_per_cycle);
  r.num("bw_per_core", m.bw_per_core);
  r.num("arithmetic_intensity", m.arithmetic_intensity);
  r.boolean("verified", m.verified);
  r.boolean("timed_out", m.timed_out);
  r.opt_uint("clusters", m.clusters);
  r.opt_num("noc_bytes", m.noc_bytes);
  r.finish();
  return m;
}

Json power_to_json(const PowerBreakdown& p) {
  Json j;
  j.set("config", p.config);
  j.set("fpu_w", p.fpu_w);
  j.set("vrf_w", p.vrf_w);
  j.set("vlsu_w", p.vlsu_w);
  j.set("snitch_w", p.snitch_w);
  j.set("icn_w", p.icn_w);
  j.set("banks_w", p.banks_w);
  j.set("burst_w", p.burst_w);
  j.set("static_w", p.static_w);
  return j;
}

PowerBreakdown power_from_json(const Json& j, const std::string& path) {
  FieldReader r(j, path);
  PowerBreakdown p;
  r.str("config", p.config);
  r.num("fpu_w", p.fpu_w);
  r.num("vrf_w", p.vrf_w);
  r.num("vlsu_w", p.vlsu_w);
  r.num("snitch_w", p.snitch_w);
  r.num("icn_w", p.icn_w);
  r.num("banks_w", p.banks_w);
  r.num("burst_w", p.burst_w);
  r.num("static_w", p.static_w);
  r.finish();
  return p;
}

}  // namespace tcdm::metrics
