#include "src/analytics/metrics_export.hpp"

#include <fstream>
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

template <class V>
void json_fields(V& v, Metric& m) {
  v("value", m.value, Key::kRequired);
  // The writer always emits rel_tol; silently defaulting a hand-edited
  // baseline to the loose sim tolerance would quietly widen the gate.
  v("rel_tol", m.rel_tol, Key::kRequired);
}

template <class V>
void json_fields(V& v, MetricsDoc& d) {
  v.schema(kSchemaName, kSchemaVersion);
  v("suite", d.suite);
  v("description", d.description);
  v("metrics", d.metrics, Key::kRequired);
}

Json MetricsDoc::to_json() const { return write_json(*this); }

MetricsDoc MetricsDoc::from_json(const Json& j) {
  MetricsDoc doc;
  read_json<SchemaError>(j, "", doc);
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

}  // namespace tcdm::metrics
