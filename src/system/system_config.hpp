// System configuration: the scale-out parameters layered above one
// ClusterConfig — how many clusters, the global barrier that synchronizes
// them, and the inter-cluster DMA phase. The NoC/L2 transport that phase
// crosses is fixed (burst_header_latency(), System::dma_cycle()). The
// per-cluster architecture stays a plain ClusterConfig; a System is always
// N identical clusters (MemPool's homogeneous group recipe).
#pragma once

#include <string>

#include "src/cluster/barrier.hpp"
#include "src/cluster/cluster_config.hpp"
#include "src/common/json.hpp"

namespace tcdm {

struct SystemConfig {
  std::string name = "system";

  /// Cluster count (power of two, 1..64). 1 degenerates to the plain
  /// single-cluster simulation: no NoC, no DMA phase, no global barrier.
  unsigned num_clusters = 2;

  // ---- global barrier (inter-cluster synchronization) ----
  BarrierKind barrier_kind = BarrierKind::kCentral;
  unsigned barrier_radix = 2;        // tree kind only (>= 2)

  // ---- inter-cluster DMA phase ----
  /// Words per DMA burst (each burst pays one header).
  unsigned dma_burst_len = 16;
  /// Words each cluster gathers from its ring neighbor's TCDM after the
  /// kernel phase; 0 disables the DMA phase (pure kernel + global sync).
  unsigned dma_words = 0;

  /// NoC depth of the radix tree between a cluster and the L2.
  [[nodiscard]] unsigned noc_hops() const noexcept {
    unsigned hops = 1;
    unsigned reach = 2;
    while (reach < num_clusters) {
      reach *= 2;
      ++hops;
    }
    return hops;
  }
  /// Cycles between issuing a DMA burst and its first payload word: one
  /// request round trip through the NoC plus the L2 access.
  [[nodiscard]] unsigned burst_header_latency() const noexcept {
    constexpr unsigned kNocHopLatency = 4;  // cycles per NoC hop
    constexpr unsigned kL2Latency = 16;     // L2 access cycles
    return 2 * noc_hops() * kNocHopLatency + kL2Latency;
  }

  /// Throws std::invalid_argument when parameters are inconsistent.
  void validate() const;

  /// Throws std::invalid_argument, naming `path` + "/dma_words", the cluster
  /// config and its capacity, when dma_words exceeds one cluster's TCDM
  /// (banks x bank_words).
  void check_fits(const ClusterConfig& cluster, const std::string& path) const;

  /// Full serialization; from_json(to_json()) is the identity for any valid
  /// config. Default-valued barrier_kind/barrier_radix are omitted (the
  /// field list is json_fields in system_config.cpp).
  [[nodiscard]] Json to_json() const;

  /// Strict deserialization: unknown keys, wrong types and inconsistent
  /// values throw std::invalid_argument naming the `/`-joined path (rooted
  /// at `path`). The returned config has been validate()d.
  static SystemConfig from_json(const Json& j, const std::string& path = "system");
};

}  // namespace tcdm
