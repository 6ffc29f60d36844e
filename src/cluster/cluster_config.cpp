#include "src/cluster/cluster_config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/bitutil.hpp"
#include "src/common/json_fields.hpp"

namespace tcdm {

CoreConfig ClusterConfig::core_config() const {
  CoreConfig cc;
  cc.snitch = snitch;
  cc.spatz.vlen_bits = vlen_bits;
  cc.spatz.lanes = vlsu_ports;
  cc.spatz.rob_depth = rob_depth;
  cc.spatz.fpu_latency = fpu_latency;
  cc.spatz.viq_depth = viq_depth;
  cc.spatz.sender.enable_bursts = burst_enabled;
  cc.spatz.sender.enable_strided_bursts = strided_bursts;
  cc.spatz.sender.enable_store_bursts = store_bursts;
  cc.spatz.sender.max_burst_len = effective_max_burst_len();
  cc.spatz.net_classes = Topology::class_count(level_sizes);
  cc.spatz.banks_per_tile = banks_per_tile;
  return cc;
}

void ClusterConfig::validate() const {
  unsigned prod = 1;
  for (unsigned s : level_sizes) prod *= s;
  if (prod != num_tiles) {
    throw std::invalid_argument(name + ": level sizes product != num_tiles");
  }
  if (level_latency.size() != level_sizes.size()) {
    throw std::invalid_argument(name + ": level latency list size mismatch");
  }
  if (vlsu_ports == 0 || vlsu_ports > kMaxPorts) {
    throw std::invalid_argument(name + ": vlsu_ports out of range");
  }
  if (banks_per_tile < vlsu_ports) {
    throw std::invalid_argument(
        name + ": banks_per_tile must be >= vlsu_ports for full local bandwidth");
  }
  if (vlen_bits % 32 != 0 || vlen_bits < 32) {
    throw std::invalid_argument(name + ": vlen_bits must be a multiple of 32");
  }
  if (burst_enabled) {
    if (grouping_factor < 1 || grouping_factor > kMaxGroupingFactor) {
      throw std::invalid_argument(name + ": grouping factor out of range");
    }
    if (effective_max_burst_len() > banks_per_tile) {
      throw std::invalid_argument(name + ": burst length exceeds banks per tile");
    }
    if (effective_max_burst_len() > kMaxBurstLen) {
      throw std::invalid_argument(name + ": burst length exceeds kMaxBurstLen");
    }
  } else if (grouping_factor != 1) {
    throw std::invalid_argument(name + ": GF > 1 requires burst_enabled");
  }
  if ((strided_bursts || store_bursts) && !burst_enabled) {
    throw std::invalid_argument(name +
                                ": strided/store bursts require burst_enabled");
  }
  if (net.req_grouping_factor < 1 || net.req_grouping_factor > kMaxGroupingFactor) {
    throw std::invalid_argument(name + ": request grouping factor out of range");
  }
  if (net.req_grouping_factor > 1 && !store_bursts) {
    throw std::invalid_argument(
        name + ": a widened request channel is only used by store bursts");
  }
  if (!is_pow2(num_tiles) || !is_pow2(banks_per_tile)) {
    throw std::invalid_argument(name + ": tile/bank counts must be powers of two");
  }
  // A zero-depth queue never accepts an entry: the run would only end at the
  // watchdog's deadlock report, naming no parameter.
  const std::pair<const char*, unsigned> depths[] = {
      {"rob_depth", rob_depth},           {"viq_depth", viq_depth},
      {"bank_in_depth", bank_in_depth},   {"bank_out_depth", bank_out_depth},
      {"net.slave_depth", net.slave_depth}, {"bm.fifo_depth", bm.fifo_depth},
      {"bm.merge_slots", bm.merge_slots}};
  for (const auto& [field, depth] : depths) {
    if (depth == 0) throw std::invalid_argument(name + ": " + field + " must be >= 1");
  }
  // Each network master port holds its level's pipe latency plus the extra
  // slots (HierNetwork sizes it in unsigned arithmetic, so a wrap is zero too).
  for (std::size_t i = 0; i < level_latency.size(); ++i) {
    const std::pair<const char*, unsigned> pipes[] = {
        {"request", level_latency[i].request}, {"response", level_latency[i].response}};
    for (const auto& [channel, latency] : pipes) {
      if (latency + net.master_extra_slots == 0) {
        throw std::invalid_argument(name + ": level_latency[" + std::to_string(i) + "]." +
                                    channel + " + net.master_extra_slots must be >= 1");
      }
    }
  }
  if (!(freq_ss_mhz > 0.0) || !(freq_tt_mhz > 0.0)) {
    throw std::invalid_argument(name + ": freq_ss_mhz and freq_tt_mhz must be positive");
  }
  if (snitch.max_scalar_loads == 0 || snitch.max_scalar_loads > kMaxScalarLoads) {
    throw std::invalid_argument(name + ": snitch.max_scalar_loads must be in 1.." +
                                std::to_string(kMaxScalarLoads));
  }
  if (bm.merge_slots > kMaxMergeSlots) {
    throw std::invalid_argument(name + ": bm.merge_slots must be <= " +
                                std::to_string(kMaxMergeSlots));
  }
}

ClusterConfig ClusterConfig::mp4spatz4() {
  ClusterConfig c;
  c.name = "mp4spatz4";
  c.num_tiles = 4;
  c.vlsu_ports = 4;
  c.vlen_bits = 256;
  c.banks_per_tile = 4;
  c.bank_words = 1024;
  // One flat level: every tile reaches its 3 peers through a dedicated
  // remote port with a 3-cycle round-trip (paper §II-A config 1).
  c.level_sizes = {1, 4};
  c.level_latency = {{1, 1}, {1, 1}};
  c.freq_ss_mhz = 770.0;
  c.freq_tt_mhz = 910.0;
  return c;
}

ClusterConfig ClusterConfig::mp64spatz4() {
  ClusterConfig c;
  c.name = "mp64spatz4";
  c.num_tiles = 64;
  c.vlsu_ports = 4;
  c.vlen_bits = 256;
  c.banks_per_tile = 4;
  c.bank_words = 1024;
  // 4 groups x 16 tiles: intra-group RT 3 cycles, inter-group RT 5 cycles
  // (paper §II-A config 2). Port count per tile: 1 + 3 = 4.
  c.level_sizes = {16, 4};
  c.level_latency = {{1, 1}, {2, 2}};
  c.freq_ss_mhz = 770.0;
  c.freq_tt_mhz = 910.0;
  return c;
}

ClusterConfig ClusterConfig::mp128spatz8() {
  ClusterConfig c;
  c.name = "mp128spatz8";
  c.num_tiles = 128;
  c.vlsu_ports = 8;
  c.vlen_bits = 512;
  c.banks_per_tile = 8;
  c.bank_words = 1024;
  // 4 groups x 4 subgroups x 8 tiles: RT 3 / 5 / 9 cycles (paper §II-A
  // config 3). Port count per tile: 1 + 3 + 3 = 7.
  c.level_sizes = {8, 4, 4};
  c.level_latency = {{1, 1}, {2, 2}, {4, 4}};
  c.freq_ss_mhz = 634.0;
  c.freq_tt_mhz = 875.0;
  return c;
}

ClusterConfig ClusterConfig::by_name(const std::string& name) {
  if (name == "mp4spatz4") return mp4spatz4();
  if (name == "mp64spatz4") return mp64spatz4();
  if (name == "mp128spatz8") return mp128spatz8();
  throw std::invalid_argument("unknown cluster preset: " + name);
}

ClusterConfig ClusterConfig::with_burst(unsigned gf) const {
  ClusterConfig c = *this;
  c.burst_enabled = true;
  c.grouping_factor = gf;
  c.rob_depth = rob_depth * 2;  // paper §III-A: ROB depth doubled
  c.name = name + "-gf" + std::to_string(gf);
  return c;
}

ClusterConfig ClusterConfig::with_strided_bursts() const {
  if (!burst_enabled) {
    throw std::invalid_argument(name + ": apply with_burst before with_strided_bursts");
  }
  ClusterConfig c = *this;
  c.strided_bursts = true;
  c.name = name + "-sb";
  return c;
}

// ------------------------------------------------------ JSON round trip ----

template <class V>
void json_fields(V& v, LevelLatency& l) {
  v("request", l.request);
  v("response", l.response);
}

template <class V>
void json_fields(V& v, SnitchConfig& s) {
  v("max_scalar_loads", s.max_scalar_loads);
  v("mul_latency", s.mul_latency);
  v("fpu_latency", s.fpu_latency);
  v("taken_branch_penalty", s.taken_branch_penalty);
}

template <class V>
void json_fields(V& v, NetworkConfig& n) {
  v("req_grouping_factor", n.req_grouping_factor);
  v("master_extra_slots", n.master_extra_slots);
  v("slave_depth", n.slave_depth);
}

template <class V>
void json_fields(V& v, BurstManagerConfig& b) {
  v("fifo_depth", b.fifo_depth);
  v("merge_slots", b.merge_slots);
}

/// The resolved burst fields, which the "burst" sugar block sets instead.
template <class V>
void burst_fields(V& v, ClusterConfig& c) {
  v("burst_enabled", c.burst_enabled);
  v("grouping_factor", c.grouping_factor);
  v("max_burst_len", c.max_burst_len);
  v("strided_bursts", c.strided_bursts);
  v("store_bursts", c.store_bursts);
}

template <class V>
void json_fields(V& v, ClusterConfig& c) {
  v("name", c.name);
  v("num_tiles", c.num_tiles);
  v("vlsu_ports", c.vlsu_ports);
  v("vlen_bits", c.vlen_bits);
  v("banks_per_tile", c.banks_per_tile);
  v("bank_words", c.bank_words);
  v("level_sizes", c.level_sizes);
  v("level_latency", c.level_latency);
  v("rob_depth", c.rob_depth);
  v("viq_depth", c.viq_depth);
  v("fpu_latency", c.fpu_latency);
  v("snitch", c.snitch);
  v("bank_in_depth", c.bank_in_depth);
  v("bank_out_depth", c.bank_out_depth);
  v("net", c.net);
  burst_fields(v, c);
  v("bm", c.bm);
  v("barrier_release_latency", c.barrier_release_latency);
  v("start_stagger_cycles", c.start_stagger_cycles);
  v("freq_ss_mhz", c.freq_ss_mhz);
  v("freq_tt_mhz", c.freq_tt_mhz);
}

namespace {

[[noreturn]] void cfg_error(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

/// Finds the first listed key present in a document.
struct FirstPresentKey {
  const Json& doc;
  const char* key = nullptr;

  template <class T>
  void operator()(const char* k, T&) {
    if (key == nullptr && doc.contains(k)) key = k;
  }
};

}  // namespace

Json ClusterConfig::to_json() const { return write_json(*this); }

ClusterConfig ClusterConfig::from_json(const Json& j, const std::string& path) {
  JsonReader<std::invalid_argument> fields(j, path);

  ClusterConfig cfg;
  std::string preset;
  fields("preset", preset);
  if (j.contains("preset")) {
    try {
      cfg = by_name(preset);
    } catch (const std::invalid_argument&) {
      cfg_error(path + "/preset",
                "unknown preset \"" + preset +
                    "\" (known: mp4spatz4, mp64spatz4, mp128spatz8)");
    }
  }

  // The burst sugar block reruns the with_burst transforms, so combining it
  // with the resolved burst fields would apply the extension twice.
  // (rob_depth stays combinable on purpose: the block doubles the swept
  // pre-burst depth, exactly like the C++ with_burst call.)
  if (j.contains("burst")) {
    FirstPresentKey direct{j};
    burst_fields(direct, cfg);
    if (direct.key != nullptr) {
      cfg_error(path + "/" + direct.key,
                "cannot combine the \"burst\" block with resolved burst fields");
    }
  }

  json_fields(fields, cfg);
  fields.finish({"burst"});

  if (j.contains("burst")) {
    const Json& b = j.at("burst");
    JsonReader<std::invalid_argument> block(b, path + "/burst");
    unsigned gf = 0;
    bool strided = false;
    unsigned store_req_gf = 0;
    block("gf", gf, Key::kRequired);  // 0 keeps the baseline
    block("max_burst_len", cfg.max_burst_len);
    block("strided", strided);
    block("store_req_gf", store_req_gf);
    block.finish();
    for (const auto& [key, value] : b.as_object()) {
      (void)value;
      if (gf == 0 && key != "gf") {
        cfg_error(path + "/burst/" + key,
                  "a baseline burst block (gf 0) takes no further parameters");
      }
    }
    if (gf > 0) {
      cfg = cfg.with_burst(gf);
      if (strided) cfg = cfg.with_strided_bursts();
      if (b.contains("store_req_gf")) cfg = cfg.with_store_bursts(store_req_gf);
    }
  }

  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    cfg_error(path, std::string("invalid configuration: ") + e.what());
  }
  return cfg;
}

ClusterConfig ClusterConfig::with_store_bursts(unsigned req_gf) const {
  if (!burst_enabled) {
    throw std::invalid_argument(name + ": apply with_burst before with_store_bursts");
  }
  ClusterConfig c = *this;
  c.store_bursts = true;
  c.net.req_grouping_factor = req_gf;
  c.name = name + "-st" + std::to_string(req_gf);
  return c;
}

}  // namespace tcdm
