// KernelSpec and RunnerOptions serialization: the data-driven half of the
// scenario layer. Every kernel the simulator ships is constructible from a
// {"kind": ..., params...} object, so the builtin suites, scenario files
// (scenario_file.hpp) and the randomized generator (scenario_gen.hpp) all
// describe workloads without C++ factories. Parameter names and defaults
// mirror the kernel constructors exactly.
#include "src/scenario/scenario.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/json_fields.hpp"
#include "src/kernels/axpy.hpp"
#include "src/kernels/conv2d.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/fft.hpp"
#include "src/kernels/gemv.hpp"
#include "src/kernels/matmul.hpp"
#include "src/kernels/maxpool.hpp"
#include "src/kernels/probes.hpp"
#include "src/kernels/relu.hpp"
#include "src/kernels/stencil.hpp"
#include "src/kernels/trace_replay.hpp"
#include "src/kernels/transpose.hpp"

namespace tcdm {

/// The host-side `sim` options are not part of a design point.
template <class V>
void json_fields(V& v, RunnerOptions& o) {
  v("verify", o.verify);
  v("max_cycles", o.max_cycles);
  v("watchdog_window", o.watchdog_window);
}

}  // namespace tcdm

namespace tcdm::scenario {

namespace {

using Reader = JsonReader<std::invalid_argument>;

[[noreturn]] void spec_error(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

/// Random-probe iteration count when a spec omits "iters": scaled down on
/// the 1024-FPU preset to bound sweep wall-clock. Every suite that measures
/// hierarchical-average bandwidth (Table I, Fig. 3, Pareto, explorer) and
/// its recorded baseline depends on this rule.
unsigned probe_iters(const ClusterConfig& cfg) {
  return cfg.num_cores() >= 128 ? 64 : 128;
}

RandomProbeKernel::Pattern probe_pattern(const std::string& s, const std::string& path) {
  if (s == "uniform") return RandomProbeKernel::Pattern::kUniform;
  if (s == "remote") return RandomProbeKernel::Pattern::kRemoteOnly;
  if (s == "local") return RandomProbeKernel::Pattern::kLocalOnly;
  spec_error(path + "/pattern", "unknown probe pattern \"" + s +
                                    "\" (known: uniform, remote, local)");
}

TracePattern trace_pattern(const std::string& s, const std::string& path) {
  if (s == "uniform") return TracePattern::kUniform;
  if (s == "hotspot") return TracePattern::kHotspot;
  if (s == "local") return TracePattern::kLocal;
  if (s == "neighbor") return TracePattern::kNeighbor;
  spec_error(path + "/pattern", "unknown trace pattern \"" + s +
                                    "\" (known: uniform, hotspot, local, neighbor)");
}

/// One walk over a kernel kind's parameter list. from_json walks it with no
/// cluster config, through the strict reader: names and types are checked,
/// and nothing is built. instantiate walks it with `cfg`, straight over the
/// already-checked parameters: required ones must be present, dimensions
/// positive, and the kernel is built.
struct Walk {
  Reader* strict;  // from_json only
  const Json::Object& params;
  const ClusterConfig* cfg;
  const std::string& path;

  template <class T>
  void operator()(const char* name, T& out, Key presence = Key::kOptional) {
    if (strict != nullptr) return (*strict)(name, out);
    const auto it = params.find(name);
    if (it != params.end()) {
      read_json<std::invalid_argument>(it->second, json_path(path, name), out);
    } else if (presence == Key::kRequired) {
      spec_error(json_path(path, name), "required key missing");
    }
  }

  /// A required positive dimension.
  unsigned dim(const char* name) {
    unsigned v = 0;
    (*this)(name, v, Key::kRequired);
    if (cfg != nullptr && v == 0) spec_error(path + "/" + name, "must be positive");
    return v;
  }
  template <class T>
  T opt(const char* name, T fallback) {
    (*this)(name, fallback);
    return fallback;
  }
  double num(const char* name, double fallback) { return opt(name, Number{fallback}).value; }
  /// Seeds are 64-bit in every kernel constructor; JSON numbers carry
  /// integers exactly up to 2^53, which is the accepted range here.
  std::uint64_t seed(std::uint64_t fallback) { return opt("seed", fallback); }

  template <class K, class... Args>
  std::unique_ptr<Kernel> make(Args&&... args) const {
    return cfg == nullptr ? nullptr : std::make_unique<K>(std::forward<Args>(args)...);
  }
};

/// Every kernel kind with its parameter list, read in list order. Names and
/// defaults mirror the kernel constructors.
struct KernelKind {
  const char* name;
  std::unique_ptr<Kernel> (*walk)(Walk& w);
};

constexpr KernelKind kKernelKinds[] = {
    {"dotp",
     [](Walk& w) {
       const unsigned n = w.dim("n");
       return w.make<DotpKernel>(n, w.seed(1));
     }},
    {"axpy",
     [](Walk& w) {
       const unsigned n = w.dim("n");
       const double alpha = w.num("alpha", 1.5);
       return w.make<AxpyKernel>(n, static_cast<float>(alpha), w.seed(2));
     }},
    {"fft",
     [](Walk& w) {
       const unsigned instances = w.dim("instances"), n = w.dim("n");
       return w.make<FftKernel>(instances, n, w.seed(4));
     }},
    {"matmul",
     [](Walk& w) {
       const unsigned n = w.dim("n"), row_block = w.opt("row_block", 4u);
       return w.make<MatmulKernel>(n, row_block, w.seed(3));
     }},
    {"gemv",
     [](Walk& w) {
       const unsigned m = w.dim("m"), n = w.dim("n"), row_block = w.opt("row_block", 4u);
       return w.make<GemvKernel>(m, n, row_block, w.seed(11));
     }},
    {"conv2d",
     [](Walk& w) {
       const unsigned h = w.dim("h"), width = w.dim("w");
       return w.make<Conv2dKernel>(h, width, w.seed(12));
     }},
    {"jacobi2d",
     [](Walk& w) {
       const unsigned h = w.dim("h"), width = w.dim("w");
       return w.make<Jacobi2dKernel>(h, width, w.seed(13));
     }},
    {"relu",
     [](Walk& w) {
       const unsigned n = w.dim("n");
       return w.make<ReluKernel>(n, w.seed(15));
     }},
    {"maxpool2x2",
     [](Walk& w) {
       const unsigned h = w.dim("h"), width = w.dim("w");
       return w.make<MaxPoolKernel>(h, width, w.seed(16));
     }},
    {"transpose",
     [](Walk& w) {
       const unsigned n = w.dim("n");
       return w.make<TransposeKernel>(n, w.seed(14));
     }},
    {"random_probe",
     [](Walk& w) {
       // iters 0 / omitted -> the auto-scaled count.
       unsigned iters = w.opt("iters", 0u);
       const auto pattern = probe_pattern(w.opt<std::string>("pattern", "uniform"), w.path);
       const std::uint64_t seed = w.seed(5);
       if (iters == 0 && w.cfg != nullptr) iters = probe_iters(*w.cfg);
       return w.make<RandomProbeKernel>(iters, pattern, seed);
     }},
    {"local_stream",
     [](Walk& w) {
       const unsigned iters = w.dim("iters");
       return w.make<LocalStreamKernel>(iters);
     }},
    {"memcpy",
     [](Walk& w) {
       const unsigned n = w.dim("n");
       return w.make<MemcpyKernel>(n, w.seed(6));
     }},
    {"strided_copy",
     [](Walk& w) {
       const unsigned n = w.dim("n"), stride_words = w.dim("stride_words");
       return w.make<StridedCopyKernel>(n, stride_words, w.seed(7));
     }},
    // The trace is generated for the concrete cluster config, so one spec
    // replays the same pattern on baseline and burst variants.
    {"trace_replay",
     [](Walk& w) -> std::unique_ptr<Kernel> {
       TraceConfig tc;
       tc.pattern = trace_pattern(w.opt<std::string>("pattern", "uniform"), w.path);
       w("entries_per_hart", tc.entries_per_hart);
       w("access_len", tc.access_len);
       tc.hotspot_fraction = w.num("hotspot_fraction", tc.hotspot_fraction);
       w("hotspot_tile", tc.hotspot_tile);
       tc.write_fraction = w.num("write_fraction", tc.write_fraction);
       tc.seed = w.seed(tc.seed);
       if (w.cfg == nullptr) return nullptr;
       return std::make_unique<TraceReplayKernel>(synthetic_trace(*w.cfg, tc));
     }},
};

/// The kernel kind named `kind`; an unknown one fails naming `path`/kind.
const KernelKind& kernel_kind(const std::string& kind, const std::string& path) {
  for (const KernelKind& k : kKernelKinds) {
    if (kind == k.name) return k;
  }
  std::string known;
  for (const KernelKind& k : kKernelKinds) {
    known += known.empty() ? "" : ", ";
    known += k.name;
  }
  spec_error(path + "/kind", "unknown kernel kind \"" + kind + "\" (known: " + known + ")");
}

}  // namespace

Json KernelSpec::to_json() const {
  Json j;
  j.set("kind", kind);
  for (const auto& [key, val] : params) j.set(key, val);
  return j;
}

KernelSpec KernelSpec::from_json(const Json& j, const std::string& path) {
  Reader r(j, path);
  KernelSpec spec;
  r("kind", spec.kind, Key::kRequired);
  Walk w{&r, j.as_object(), nullptr, path};
  (void)kernel_kind(spec.kind, path).walk(w);
  r.finish();
  spec.params = j.as_object();
  spec.params.erase("kind");
  return spec;
}

std::unique_ptr<Kernel> KernelSpec::instantiate(const ClusterConfig& cfg,
                                                const std::string& path) const {
  Walk w{nullptr, params, &cfg, path};
  return kernel_kind(kind, path).walk(w);
}

Json runner_options_to_json(const RunnerOptions& o) { return write_json(o); }

RunnerOptions runner_options_from_json(const Json& j, const std::string& path) {
  RunnerOptions o;
  read_json<std::invalid_argument>(j, path, o);
  return o;
}

}  // namespace tcdm::scenario
