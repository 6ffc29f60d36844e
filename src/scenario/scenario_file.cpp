#include "src/scenario/scenario_file.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/json_fields.hpp"

namespace tcdm {

// Template values are read as written: placeholder substitution fills them
// in per sweep point before their own readers see them.
static std::string json_decode(const Json& v, Json& out) {
  out = v;
  return {};
}

}  // namespace tcdm

namespace tcdm::scenario {

namespace {

/// Throws the path-named error; parse_suite prefixes the document's source.
[[noreturn]] void fail(const std::string& path, const std::string& what) {
  json_fail<ScenarioFileError>(path, what);
}

/// Scalar -> text for placeholder interpolation inside longer strings.
/// Numbers and booleans print exactly as the JSON writer spells them (so
/// "len{len}" with len = 2 becomes "len2", and 0.1 stays "0.1").
std::string scalar_text(const Json& v, const std::string& path) {
  if (v.is_string()) return v.as_string();
  if (v.is_number() || v.is_bool()) return v.dump_compact();
  fail(path, "cannot interpolate an object/array/null into a string");
}

/// Resolve "{param}" or "{param.field}" against the sweep bindings.
const Json& resolve_placeholder(const std::string& ref, const Json::Object& bindings,
                                const std::string& path) {
  const std::size_t dot = ref.find('.');
  const std::string param = dot == std::string::npos ? ref : ref.substr(0, dot);
  const auto it = bindings.find(param);
  if (it == bindings.end()) {
    fail(path, "placeholder {" + ref + "} names no sweep parameter");
  }
  if (dot == std::string::npos) return it->second;
  const std::string field = ref.substr(dot + 1);
  if (!it->second.is_object() || !it->second.contains(field)) {
    fail(path, "placeholder {" + ref + "}: sweep value of \"" + param +
                   "\" has no field \"" + field + "\"");
  }
  return it->second.at(field);
}

/// Substitute every placeholder in `v` for one sweep point. A string that
/// is exactly one placeholder becomes the bound value itself (type- and
/// structure-preserving); otherwise placeholders interpolate textually.
Json substitute(const Json& v, const Json::Object& bindings, const std::string& path) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s.size() >= 2 && s.front() == '{' && s.back() == '}' &&
        s.find('{', 1) == std::string::npos &&
        s.find('}') == s.size() - 1) {
      return resolve_placeholder(s.substr(1, s.size() - 2), bindings, path);
    }
    std::string out;
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t open = s.find('{', pos);
      if (open == std::string::npos) {
        out += s.substr(pos);
        break;
      }
      const std::size_t close = s.find('}', open);
      if (close == std::string::npos) {
        fail(path, "unterminated placeholder in \"" + s + "\"");
      }
      out += s.substr(pos, open - pos);
      out += scalar_text(
          resolve_placeholder(s.substr(open + 1, close - open - 1), bindings, path), path);
      pos = close + 1;
    }
    return Json(std::move(out));
  }
  if (v.is_array()) {
    Json::Array out;
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      out.push_back(
          substitute(v.as_array()[i], bindings, path + "[" + std::to_string(i) + "]"));
    }
    return Json(std::move(out));
  }
  if (v.is_object()) {
    Json::Object out;
    for (const auto& [key, val] : v.as_object()) {
      out[key] = substitute(val, bindings, path + "/" + key);
    }
    return Json(std::move(out));
  }
  return v;
}

/// A sweep value {"range": {...}}: arithmetic with "step" (from,
/// from+step, ... <= to) or geometric with "mul".
struct Range {
  Number from;
  Number to;
  std::optional<Number> step;
  std::optional<Number> mul;
};

template <class V>
void json_fields(V& v, Range& r) {
  v("from", r.from, Key::kRequired);
  v("to", r.to, Key::kRequired);
  v("step", r.step);
  v("mul", r.mul);
}

struct RangeSweep {
  Range range;
};

template <class V>
void json_fields(V& v, RangeSweep& s) {
  v("range", s.range, Key::kRequired);
}

/// One scenario template, its values as written.
struct Template {
  std::string name;
  std::optional<Json::Object> sweep;
  Json config;
  Json kernel;
  std::optional<Json> options;
  std::optional<Json> expect_verified;
  std::optional<Json> system;
};

template <class V>
void json_fields(V& v, Template& t) {
  v("name", t.name, Key::kRequired);
  v("sweep", t.sweep);
  v("config", t.config, Key::kRequired);
  v("kernel", t.kernel, Key::kRequired);
  v("options", t.options);
  v("expect_verified", t.expect_verified);
  v("system", t.system);
}

struct SuiteDoc {
  SuiteSpec suite;
  std::vector<Template> scenarios;
};

template <class V>
void json_fields(V& v, SuiteDoc& d) {
  v.schema(kScenarioSchemaName, kScenarioSchemaVersion);
  v("suite", d.suite.name, Key::kRequired);
  v("description", d.suite.description);
  v("emit_by_default", d.suite.emit_by_default);
  v("scenarios", d.scenarios);  // absent reads as empty, which is refused
}

/// Expand one sweep value list: an explicit array, or a range object.
std::vector<Json> sweep_values(const Json& v, const std::string& path) {
  if (!v.is_object()) {
    std::vector<Json> list;
    read_json<ScenarioFileError>(v, path, list);
    if (list.empty()) fail(path, "sweep list must be non-empty");
    return list;
  }
  RangeSweep sweep;
  read_json<ScenarioFileError>(v, path, sweep);
  const Range& r = sweep.range;
  const std::string rpath = path + "/range";
  if (r.step.has_value() == r.mul.has_value()) {
    fail(rpath, "exactly one of \"step\" or \"mul\" is required");
  }
  // Capped inside the loops: an over-wide (or typo'd) range must produce
  // this diagnostic, not an OOM — and the cap also bounds the iteration
  // count below the float plateau where `x += step` stops advancing.
  std::vector<Json> out;
  const auto push = [&](double x) {
    out.emplace_back(x);
    if (out.size() > kMaxScenariosPerSuite) {
      fail(rpath, "expands to more than " + std::to_string(kMaxScenariosPerSuite) +
                      " values");
    }
  };
  const double from = r.from.value;
  const double to = r.to.value;
  if (r.step) {
    const double step = r.step->value;
    if (step <= 0.0) fail(rpath + "/step", "must be positive");
    for (double x = from; x <= to + 1e-9; x += step) push(x);
  } else {
    const double mul = r.mul->value;
    if (mul <= 1.0) fail(rpath + "/mul", "must be > 1");
    if (from <= 0.0) fail(rpath + "/from", "must be positive with mul");
    for (double x = from; x <= to + 1e-9; x *= mul) push(x);
  }
  if (out.empty()) fail(rpath, "expands to no values");
  return out;
}

struct SweepParam {
  std::string name;
  std::vector<Json> values;
};

std::vector<SweepParam> parse_sweep(const Json::Object& sweep, const std::string& path) {
  std::vector<SweepParam> out;
  for (const auto& [key, val] : sweep) {
    if (key.empty()) fail(path, "empty sweep parameter name");
    for (char c : key) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        fail(path + "/" + key, "sweep parameter names are [A-Za-z0-9_] only");
      }
    }
    out.push_back({key, sweep_values(val, path + "/" + key)});
  }
  if (out.empty()) fail(path, "sweep must define at least one parameter");
  return out;
}

/// One expanded and validated scenario for the sweep point `bindings`;
/// `seen` holds the names expanded so far.
FileScenario expand(const Template& tpl, const Json::Object& bindings,
                    const std::string& tpath, std::set<std::string>& seen) {
  FileScenario sc;
  const Json name = substitute(Json(tpl.name), bindings, tpath + "/name");
  if (!name.is_string() || name.as_string().empty()) {
    fail(tpath + "/name", "expands to an empty or non-string name");
  }
  sc.rel = name.as_string();
  if (!seen.insert(sc.rel).second) {
    fail(tpath + "/name", "duplicate expanded scenario name \"" + sc.rel +
                              "\" (sweep parameters must appear in the name template)");
  }
  const auto value = [&](const Json& v, const char* key) {
    return substitute(v, bindings, tpath + "/" + key);
  };
  try {
    sc.config = ClusterConfig::from_json(value(tpl.config, "config"), tpath + "/config");
    sc.kernel = KernelSpec::from_json(value(tpl.kernel, "kernel"), tpath + "/kernel");
    // Dry-run construction so parameter errors surface at load time,
    // not mid-sweep.
    (void)sc.kernel.instantiate(sc.config, tpath + "/kernel");
    if (tpl.options) {
      sc.opts = runner_options_from_json(value(*tpl.options, "options"), tpath + "/options");
    }
    if (tpl.system) {
      sc.system = SystemConfig::from_json(value(*tpl.system, "system"), tpath + "/system");
      // Cross-field check the System constructor would reject anyway —
      // surfaced at load time with the scenario path instead.
      sc.system->check_fits(sc.config, tpath + "/system");
    }
    if (tpl.expect_verified) {
      read_json<ScenarioFileError>(value(*tpl.expect_verified, "expect_verified"),
                                   tpath + "/expect_verified", sc.expect_verified);
    }
  } catch (const ScenarioFileError&) {
    throw;
  } catch (const std::exception& e) {
    throw ScenarioFileError(std::string(e.what()) + " (scenario \"" + sc.rel + "\")");
  }
  return sc;
}

LoadedSuite read_suite(const Json& doc) {
  SuiteDoc d;
  read_json<ScenarioFileError>(doc, "", d);
  if (d.suite.name.empty()) fail("suite", "expected a non-empty string");
  if (d.suite.name.find('/') != std::string::npos) {
    fail("suite", "name must not contain '/'");
  }
  if (d.scenarios.empty()) fail("scenarios", "expected a non-empty array");

  LoadedSuite out{std::move(d.suite), {}};
  std::set<std::string> seen;
  for (std::size_t t = 0; t < d.scenarios.size(); ++t) {
    const Template& tpl = d.scenarios[t];
    const std::string tpath = "scenarios[" + std::to_string(t) + "]";
    std::vector<SweepParam> sweep;
    if (tpl.sweep) sweep = parse_sweep(*tpl.sweep, tpath + "/sweep");

    // Odometer over the cartesian product, last parameter varying fastest.
    std::vector<std::size_t> idx(sweep.size(), 0);
    while (true) {
      Json::Object bindings;
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        bindings[sweep[i].name] = sweep[i].values[idx[i]];
      }
      out.scenarios.push_back(expand(tpl, bindings, tpath, seen));
      if (out.scenarios.size() > kMaxScenariosPerSuite) {
        fail("", "suite expands to more than " + std::to_string(kMaxScenariosPerSuite) +
                     " scenarios");
      }

      std::size_t i = sweep.size();
      bool wrapped = true;
      while (i > 0) {
        --i;
        if (++idx[i] < sweep[i].values.size()) {
          wrapped = false;
          break;
        }
        idx[i] = 0;
      }
      if (wrapped) break;  // product exhausted (also the sweep-less case)
    }
  }
  return out;
}

}  // namespace

LoadedSuite parse_suite(const Json& doc, const std::string& source) {
  try {
    return read_suite(doc);
  } catch (const ScenarioFileError& e) {
    throw ScenarioFileError(source + ": " + e.what());
  }
}

LoadedSuite load_suite_file(const std::string& path) {
  std::string text;
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      throw ScenarioFileIoError(path + ": is a directory");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ScenarioFileIoError(path + ": cannot open file");
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) throw ScenarioFileIoError(path + ": read failed");
    text = ss.str();
  }
  const std::string source = path == "-" ? "<stdin>" : path;
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const JsonDepthError& e) {
    // Too deep to read at all: refused like an unreadable file (exit 2),
    // not judged as invalid suite content.
    throw ScenarioFileIoError(source + ": " + e.what());
  } catch (const JsonError& e) {
    throw ScenarioFileError(source + ": " + e.what());
  }
  return parse_suite(doc, source);
}

ScenarioSpec to_scenario_spec(const std::string& suite, const FileScenario& sc) {
  ScenarioSpec s;
  s.name = suite + "/" + sc.rel;
  s.config = [cfg = sc.config] { return cfg; };
  s.kernel = [kernel = sc.kernel, cfg = sc.config] { return kernel.instantiate(cfg); };
  s.opts = sc.opts;
  s.expect_verified = sc.expect_verified;
  if (sc.system) s.system = [sys = *sc.system] { return sys; };
  return s;
}

void register_loaded_suite(ScenarioRegistry& reg, const LoadedSuite& suite) {
  reg.add_suite(suite.suite);
  for (const FileScenario& sc : suite.scenarios) {
    reg.add(to_scenario_spec(suite.suite.name, sc));
  }
}

std::string register_suite_file(ScenarioRegistry& reg, const std::string& path) {
  const LoadedSuite suite = load_suite_file(path);
  register_loaded_suite(reg, suite);
  return suite.suite.name;
}

}  // namespace tcdm::scenario
