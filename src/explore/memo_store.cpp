#include "src/explore/memo_store.hpp"

#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "src/analytics/metrics_export.hpp"
#include "src/common/json_fields.hpp"

namespace tcdm::explore {

namespace {

[[noreturn]] void corrupt(const std::string& path, std::size_t line,
                          const std::string& what) {
  throw ExploreFileError(path + ":" + std::to_string(line) + ": " + what);
}

/// Line 1 of every cache file.
struct Header {};

template <class V>
void json_fields(V& v, Header&) {
  v.schema(kCacheSchemaName, kCacheSchemaVersion);
}

/// Every further line: a design-point key beside the result it maps to.
struct Entry {
  std::string key;
  CachedResult result;
};

template <class V>
void json_fields(V& v, Entry& e) {
  v("key", e.key, Key::kRequired);
  v("rel", e.result.rel, Key::kRequired);
  v("error", e.result.error, Key::kRequired);
  v("metrics", e.result.metrics, Key::kRequired);
  v("power", e.result.power, Key::kRequired);
}

/// Reads line `line` of `path` as a T; faults name `path:line/<key>`.
template <class T>
T read_line(const Json& j, const std::string& path, std::size_t line) {
  T out;
  read_json<ExploreFileError>(j, path + ":" + std::to_string(line), out);
  return out;
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
        (void)read_line<Header>(j, path, line_no);
        header_seen = true;
        continue;
      }
      Entry e = read_line<Entry>(j, path, line_no);
      entries_[std::move(e.key)] = std::move(e.result);
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
      append_ << write_json(Header{}).dump_compact() << '\n';
      append_.flush();
    } else if (unterminated) {  // complete last line, newline lost in a kill
      append_ << '\n';
      append_.flush();
    }
  } else {
    append_.open(path, std::ios::binary | std::ios::app);
    if (!append_) throw std::runtime_error(path + ": cannot open for appending");
    append_ << write_json(Header{}).dump_compact() << '\n';
    append_.flush();
  }
}

const CachedResult* MemoStore::lookup(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void MemoStore::insert(const std::string& key, CachedResult result) {
  if (append_.is_open()) {
    append_ << write_json(Entry{key, result}).dump_compact() << '\n';
    append_.flush();  // a killed run keeps every completed entry
    if (!append_) throw std::runtime_error(path_ + ": append failed");
  }
  entries_[key] = std::move(result);
}

}  // namespace tcdm::explore
