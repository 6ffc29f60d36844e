// Internal to register_builtin (builtin.hpp): each src/scenario/builtin_*.cpp
// lists its suites, in registration order, as documents plus C++ hooks.
#pragma once

#include <vector>

#include "src/scenario/scenario.hpp"

namespace tcdm::scenario::builtin {

/// One builtin suite: the tcdm-scenarios `document` names the suite and
/// declares its scenarios; the hooks are the SuiteSpec fields it cannot
/// express (unset ones keep the generic table and default metrics).
struct Suite {
  const char* document;
  decltype(SuiteSpec::print) print = {};
  decltype(SuiteSpec::emit_model) emit_model = {};
  decltype(SuiteSpec::emit) emit = {};
};

std::vector<Suite> table_suites();      // table1, table2, fig3_roofline, fig5_breakdown
std::vector<Suite> ablation_suites();   // ablation_{burst,gf,rob,store,stride}
std::vector<Suite> extension_suites();  // ext_kernels, pareto_area_bw, trace_patterns,
                                        // explorer, scaling
std::vector<Suite> system_suites();     // multi_cluster_scaling

}  // namespace tcdm::scenario::builtin
