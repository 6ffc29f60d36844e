#include "src/explore/memo_store.hpp"

#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "src/analytics/metrics_export.hpp"
#include "src/common/json.hpp"

namespace tcdm::explore {

namespace {

[[noreturn]] void corrupt(const std::string& path, std::size_t line,
                          const std::string& what) {
  throw ExploreFileError(path + ":" + std::to_string(line) + ": " + what);
}

Json header_json() {
  Json h;
  h.set("schema", kCacheSchemaName);
  h.set("schema_version", kCacheSchemaVersion);
  return h;
}

void check_header(const Json& h, const std::string& path) {
  if (!h.is_object() || h.get("schema", std::string()) != kCacheSchemaName) {
    corrupt(path, 1, "not a " + std::string(kCacheSchemaName) + " file");
  }
  if (h.get("schema_version", 0.0) != kCacheSchemaVersion) {
    corrupt(path, 1,
            "unsupported schema_version (expected " +
                std::to_string(kCacheSchemaVersion) + ")");
  }
  if (h.as_object().size() != 2) corrupt(path, 1, "unexpected keys in header");
}

Json entry_to_json(const std::string& key, const CachedResult& r) {
  Json j;
  j.set("key", key);
  j.set("rel", r.rel);
  j.set("error", r.error);
  j.set("metrics", metrics::kernel_metrics_to_json(r.metrics));
  j.set("power", metrics::power_to_json(r.power));
  return j;
}

std::pair<std::string, CachedResult> entry_from_json(const Json& j,
                                                     const std::string& path,
                                                     std::size_t line) {
  if (!j.is_object()) corrupt(path, line, "expected an entry object");
  for (const auto& [key, val] : j.as_object()) {
    (void)val;
    if (key != "key" && key != "rel" && key != "error" && key != "metrics" &&
        key != "power") {
      corrupt(path, line, "unknown entry field \"" + key + "\"");
    }
  }
  for (const char* req : {"key", "rel", "error", "metrics", "power"}) {
    if (!j.contains(req)) {
      corrupt(path, line, std::string("entry field \"") + req + "\" missing");
    }
  }
  if (!j.at("key").is_string() || !j.at("rel").is_string() ||
      !j.at("error").is_string()) {
    corrupt(path, line, "key/rel/error must be strings");
  }
  CachedResult r;
  r.rel = j.at("rel").as_string();
  r.error = j.at("error").as_string();
  const std::string where = path + ":" + std::to_string(line);
  try {
    r.metrics = metrics::kernel_metrics_from_json(j.at("metrics"), where + "/metrics");
    r.power = metrics::power_from_json(j.at("power"), where + "/power");
  } catch (const metrics::SchemaError& e) {
    throw ExploreFileError(e.what());
  }
  return {j.at("key").as_string(), std::move(r)};
}

}  // namespace

MemoStore::MemoStore(const std::string& path) : path_(path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    throw std::runtime_error(path + ": is a directory");
  }
  if (std::filesystem::exists(path, ec)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error(path + ": cannot open cache file");
    std::string line;
    std::size_t line_no = 0;
    bool header_seen = false;
    std::uintmax_t line_end = 0;            // byte offset past the line read
    std::optional<std::uintmax_t> torn_at;  // start of a torn final line
    bool unterminated = false;              // last line kept lacks its '\n'
    while (std::getline(in, line)) {
      ++line_no;
      const std::uintmax_t line_start = line_end;
      unterminated = in.eof();
      line_end += line.size() + (unterminated ? 0 : 1);
      if (line.empty()) continue;
      Json j;
      try {
        j = Json::parse(line);
      } catch (const JsonError& e) {
        // A torn final line is the expected artifact of a killed run: the
        // entry was lost, the store is otherwise intact. Anywhere else,
        // unparsable content means the file cannot be trusted.
        if (unterminated) {
          torn_at = line_start;
          unterminated = false;
          break;
        }
        corrupt(path, line_no, e.what());
      }
      if (!header_seen) {
        check_header(j, path);
        header_seen = true;
        continue;
      }
      auto [key, result] = entry_from_json(j, path, line_no);
      entries_[std::move(key)] = std::move(result);
    }
    if (in.bad()) throw std::runtime_error(path + ": read failed");
    if (!header_seen && line_no > 0) corrupt(path, 1, "missing header line");
    in.close();
    if (torn_at) {
      // Appending after the fragment would fuse it with the next entry into
      // one unparsable line in the middle of the file.
      std::filesystem::resize_file(path, *torn_at, ec);
      if (ec) {
        throw std::runtime_error(path + ": cannot truncate torn line: " + ec.message());
      }
    }
    append_.open(path, std::ios::binary | std::ios::app);
    if (!append_) throw std::runtime_error(path + ": cannot open for appending");
    if (line_no == 0) {  // existed but empty: write the header now
      append_ << header_json().dump_compact() << '\n';
      append_.flush();
    } else if (unterminated) {  // complete last line, newline lost in a kill
      append_ << '\n';
      append_.flush();
    }
  } else {
    append_.open(path, std::ios::binary | std::ios::app);
    if (!append_) throw std::runtime_error(path + ": cannot open for appending");
    append_ << header_json().dump_compact() << '\n';
    append_.flush();
  }
}

const CachedResult* MemoStore::lookup(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void MemoStore::insert(const std::string& key, CachedResult result) {
  if (append_.is_open()) {
    append_ << entry_to_json(key, result).dump_compact() << '\n';
    append_.flush();  // a killed run keeps every completed entry
    if (!append_) throw std::runtime_error(path_ + ": append failed");
  }
  entries_[key] = std::move(result);
}

}  // namespace tcdm::explore
