// Builtin suites: every table, figure, ablation and study the repo
// reproduces. Each is a tcdm-scenarios document (scenario_file.hpp) kept
// as a raw-string literal beside its console printer in
// src/scenario/builtin_*.cpp, and registers through the same
// parse_suite + register_loaded_suite path as a suite file. C++ keeps only
// what JSON cannot express: the printers, closed-form model rows and the
// emission rules of suites whose metrics are not the default.
#pragma once

namespace tcdm::scenario {

/// Register every builtin suite and scenario into the process registry.
/// Idempotent: callers (CLIs, examples, tests) invoke it freely.
void register_builtin();

}  // namespace tcdm::scenario
