#include "src/system/system_config.hpp"

#include <stdexcept>

#include "src/common/bitutil.hpp"
#include "src/common/json_fields.hpp"

namespace tcdm {

// BarrierKind travels by its canonical name.
static Json json_encode(BarrierKind kind) { return Json(barrier_kind_name(kind)); }

static std::string json_decode(const Json& v, BarrierKind& out) {
  if (!v.is_string()) return "expected a string";
  try {
    out = barrier_kind_from_name(v.as_string());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

template <class V>
void json_fields(V& v, SystemConfig& c) {
  v("name", c.name);
  v("num_clusters", c.num_clusters);
  // Default-valued barrier fields are omitted so canonical spellings (and
  // the explore cache keys hashed from them) stay minimal.
  v.omit_at("barrier_kind", c.barrier_kind, BarrierKind::kCentral);
  v.omit_at("barrier_radix", c.barrier_radix, 2u);
  v("dma_burst_len", c.dma_burst_len);
  v("dma_words", c.dma_words);
}

void SystemConfig::validate() const {
  if (num_clusters == 0 || num_clusters > 64 || !is_pow2(num_clusters)) {
    throw std::invalid_argument(name +
                                ": num_clusters must be a power of two in [1, 64]");
  }
  if (barrier_radix < 2) {
    throw std::invalid_argument(name + ": barrier_radix must be >= 2");
  }
  if (dma_burst_len == 0) {
    throw std::invalid_argument(name + ": dma_burst_len must be >= 1");
  }
}

void SystemConfig::check_fits(const ClusterConfig& cluster, const std::string& path) const {
  const unsigned tcdm_words = cluster.num_banks() * cluster.bank_words;
  if (dma_words > tcdm_words) {
    throw std::invalid_argument(
        path + "/dma_words: " + std::to_string(dma_words) +
        " exceeds the TCDM capacity of cluster config \"" + cluster.name + "\" (" +
        std::to_string(cluster.num_banks()) + " banks x " +
        std::to_string(cluster.bank_words) + " words = " + std::to_string(tcdm_words) +
        " words)");
  }
}

Json SystemConfig::to_json() const { return write_json(*this); }

SystemConfig SystemConfig::from_json(const Json& j, const std::string& path) {
  SystemConfig cfg;
  read_json<std::invalid_argument>(j, path, cfg);
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": invalid configuration: " + e.what());
  }
  return cfg;
}

}  // namespace tcdm
