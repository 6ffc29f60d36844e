// One field list per serialized struct, walked by one writer and one strict
// reader, so each wire format spells each of its keys exactly once.
//
// A serialized struct S lists its keys in a visitor template, found by
// argument-dependent lookup:
//
//   template <class V> void json_fields(V& v, S& s) {
//     v("name", s.name);                         // absent on read: keeps s.name
//     v("cycles", s.cycles, Key::kRequired);     // absent on read: an error
//     v.omit_at("clusters", s.clusters, 1u);     // written only when != 1
//     v.schema("tcdm-metrics", 1);               // versioned document header
//   }
//
// write_json(s) walks it with JsonWriter. read_json<Error>(j, path, s) walks
// it with JsonReader and throws Error("<path>/<key>: <what>") at the first
// fault: a mistyped value or a missing required key in list order, then any
// key no field claims. Members nest: vectors (`path[i]`), string-keyed maps
// (`path/<name>`), std::optional (read when the key is present, left empty
// when absent) and structs with their own json_fields. Leaf types beyond
// unsigned, uint64, double, bool and string supply a json_encode /
// json_decode pair in their own namespace (BarrierKind does).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/json.hpp"

namespace tcdm {

/// Whether a reader may find a field's key absent.
enum class Key { kOptional, kRequired };

// ---- leaf codecs --------------------------------------------------------
// json_decode returns the complaint about a mismatched value; empty means
// `out` was set.

inline Json json_encode(unsigned v) { return Json(v); }
inline Json json_encode(std::uint64_t v) { return Json(static_cast<unsigned long long>(v)); }
inline Json json_encode(double v) { return Json(v); }
inline Json json_encode(bool v) { return Json(v); }
inline Json json_encode(const std::string& v) { return Json(v); }

inline std::string json_decode(const Json& v, unsigned& out) {
  if (!v.is_uint()) return "expected a non-negative integer";
  out = static_cast<unsigned>(v.as_double());
  return {};
}
inline std::string json_decode(const Json& v, std::uint64_t& out) {
  if (!v.is_uint(9007199254740992.0)) return "expected a non-negative integer";  // 2^53
  out = static_cast<std::uint64_t>(v.as_double());
  return {};
}
inline std::string json_decode(const Json& v, double& out) {
  if (!v.is_number() && !v.is_null()) return "expected a number";  // null: a NaN
  out = v.as_double();
  return {};
}
inline std::string json_decode(const Json& v, bool& out) {
  if (!v.is_bool()) return "expected true or false";
  out = v.as_bool();
  return {};
}
inline std::string json_decode(const Json& v, std::string& out) {
  if (!v.is_string()) return "expected a string";
  out = v.as_string();
  return {};
}

/// `key` under `path`; the document root is the empty path.
inline std::string json_path(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "/" + std::string(key);
}

template <class Error>
[[noreturn]] void json_fail(const std::string& path, const std::string& what) {
  throw Error(path.empty() ? what : path + ": " + what);
}

/// The header a versioned document opens with.
struct SchemaHeader {
  std::string schema;
  unsigned schema_version = 0;
};

template <class V>
void json_fields(V& v, SchemaHeader& h) {
  v("schema", h.schema, Key::kRequired);
  v("schema_version", h.schema_version, Key::kRequired);
}

// ---- writer -------------------------------------------------------------

class JsonWriter;

/// A struct with a json_fields list.
template <class S>
concept JsonStruct = requires(JsonWriter& w, S& s) { json_fields(w, s); };

template <class T>
Json json_encode(const std::vector<T>& v);
template <class T>
Json json_encode(const std::map<std::string, T>& m);
template <JsonStruct S>
Json json_encode(const S& s);

class JsonWriter {
 public:
  template <class T>
  void operator()(const char* key, const T& value, Key = Key::kOptional) {
    doc_.set(key, json_encode(value));
  }
  template <class T>
  void omit_at(const char* key, const T& value, const std::type_identity_t<T>& omitted) {
    if (!(value == omitted)) (*this)(key, value);
  }
  void schema(const char* name, unsigned version) {
    SchemaHeader h{name, version};
    json_fields(*this, h);
  }

  [[nodiscard]] Json take() { return std::move(doc_); }

 private:
  Json doc_{Json::Object{}};
};

template <class S>
[[nodiscard]] Json write_json(const S& s) {
  JsonWriter w;
  json_fields(w, const_cast<S&>(s));  // the writer only reads the members
  return w.take();
}

template <class T>
Json json_encode(const std::vector<T>& v) {
  Json::Array out;
  out.reserve(v.size());
  for (const T& e : v) out.push_back(json_encode(e));
  return out;
}

template <class T>
Json json_encode(const std::map<std::string, T>& m) {
  Json::Object out;
  for (const auto& [name, e] : m) out.emplace(name, json_encode(e));
  return out;
}

template <JsonStruct S>
Json json_encode(const S& s) {
  return write_json(s);
}

// ---- reader -------------------------------------------------------------

template <class Error, class T>
void read_json(const Json& v, const std::string& path, T& out);
template <class Error, class T>
void read_json(const Json& v, const std::string& path, std::vector<T>& out);
template <class Error, class T>
void read_json(const Json& v, const std::string& path, std::map<std::string, T>& out);
template <class Error, class T>
void read_json(const Json& v, const std::string& path, std::optional<T>& out);

/// Strict reader over one JSON object: each visited field is read from its
/// key (or stays as is when absent and optional); finish() then refuses any
/// key no field claimed.
template <class Error>
class JsonReader {
 public:
  JsonReader(const Json& j, const std::string& path) : path_(path) {
    if (!j.is_object()) json_fail<Error>(path, "expected an object");
    obj_ = &j.as_object();
  }

  template <class T>
  void operator()(const char* key, T& out, Key presence = Key::kOptional) {
    known_.push_back(key);
    const auto it = obj_->find(key);
    if (it != obj_->end()) {
      read_json<Error>(it->second, json_path(path_, key), out);
    } else if (presence == Key::kRequired) {
      json_fail<Error>(json_path(path_, key), "required key missing");
    }
  }
  template <class T>
  void omit_at(const char* key, T& out, const std::type_identity_t<T>&) {
    (*this)(key, out);
  }
  void schema(const char* name, unsigned version) {
    SchemaHeader h;
    json_fields(*this, h);
    if (h.schema != name) {
      json_fail<Error>(path_, "unknown schema \"" + h.schema + "\" (expected \"" + name +
                                  "\")");
    }
    if (h.schema_version != version) {
      json_fail<Error>(path_, "unsupported schema_version " +
                                  std::to_string(h.schema_version) + " (expected " +
                                  std::to_string(version) + ")");
    }
  }

  /// Throws on the first key that neither a visited field nor `sugar` (keys
  /// the caller reads by hand) claims.
  void finish(std::initializer_list<std::string_view> sugar = {}) const {
    for (const auto& [key, value] : *obj_) {
      (void)value;
      bool claimed = false;
      for (std::string_view k : known_) claimed = claimed || k == key;
      for (std::string_view k : sugar) claimed = claimed || k == key;
      if (!claimed) json_fail<Error>(json_path(path_, key), "unknown key");
    }
  }

 private:
  const Json::Object* obj_ = nullptr;
  std::string path_;
  std::vector<std::string_view> known_;
};

template <class Error, class T>
void read_json(const Json& v, const std::string& path, std::vector<T>& out) {
  if (!v.is_array()) json_fail<Error>(path, "expected an array");
  const Json::Array& arr = v.as_array();
  out.assign(arr.size(), T{});
  for (std::size_t i = 0; i < arr.size(); ++i) {
    read_json<Error>(arr[i], path + "[" + std::to_string(i) + "]", out[i]);
  }
}

template <class Error, class T>
void read_json(const Json& v, const std::string& path, std::map<std::string, T>& out) {
  if (!v.is_object()) json_fail<Error>(path, "expected an object");
  out.clear();
  for (const auto& [name, e] : v.as_object()) {
    read_json<Error>(e, json_path(path, name), out[name]);
  }
}

template <class Error, class T>
void read_json(const Json& v, const std::string& path, std::optional<T>& out) {
  read_json<Error>(v, path, out.emplace());
}

/// Reads `v` into `out`, a struct with json_fields or a leaf value.
template <class Error, class T>
void read_json(const Json& v, const std::string& path, T& out) {
  if constexpr (requires(JsonReader<Error>& r) { json_fields(r, out); }) {
    JsonReader<Error> r(v, path);
    json_fields(r, out);
    r.finish();
  } else {
    const std::string complaint = json_decode(v, out);
    if (!complaint.empty()) json_fail<Error>(path, complaint);
  }
}

}  // namespace tcdm
