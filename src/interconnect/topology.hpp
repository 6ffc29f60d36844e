// Hierarchical cluster topology and destination-class computation.
//
// Tiles are arranged in a mixed-radix hierarchy described by `level_sizes`
// (bottom-up): MP64Spatz4 is {16, 4} — 16 tiles per group, 4 groups; the
// 1024-FPU MP128Spatz8 is {8, 4, 4} — 8 tiles per subgroup, 4 subgroups per
// group, 4 groups.
//
// Every tile owns one *master port* per "destination class", matching the
// paper's port enumeration (§II-A):
//   * class 0              — peer tiles inside the same lowest-level node
//                            (one shared port; "one port accesses other
//                            Tiles within the same SubGroup"),
//   * one class per sibling node at each higher level ("three ports access
//     the other three SubGroups", "three ports access remote Groups").
//
// MP64Spatz4 gets 1 + 3 = 4 ports per tile, MP128Spatz8 gets 1 + 3 + 3 = 7 —
// exactly the counts in the paper. Each class has a configured one-way
// request/response pipe latency; zero-load round-trips come out as
// 1 + lat_req + lat_rsp cycles (3/5/9 for the paper's levels).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace tcdm {

/// Per-hierarchy-level interconnect latencies (one-way pipe stages).
struct LevelLatency {
  unsigned request = 1;
  unsigned response = 1;
};

class Topology {
 public:
  Topology() = default;
  /// `level_sizes` bottom-up; product is the tile count. `latency[i]` applies
  /// to traffic whose lowest common node is at level i.
  Topology(std::vector<unsigned> level_sizes, std::vector<LevelLatency> latency);

  [[nodiscard]] unsigned num_tiles() const noexcept { return num_tiles_; }
  [[nodiscard]] const std::vector<unsigned>& level_sizes() const noexcept {
    return level_sizes_;
  }

  /// Total number of destination classes == master ports per tile
  /// (class 0 exists even when level_sizes[0] == 1, it is just never used).
  [[nodiscard]] unsigned num_classes() const noexcept { return num_classes_; }
  /// num_classes() of a topology with these level sizes, without building
  /// its class table: class 0 plus one class per sibling at each level >= 1.
  [[nodiscard]] static unsigned class_count(const std::vector<unsigned>& level_sizes);

  /// Class of traffic from `src` to a *different* tile `dst`.
  [[nodiscard]] std::uint8_t class_of(TileId src, TileId dst) const {
    return class_table_[static_cast<std::size_t>(src) * num_tiles_ + dst];
  }

  /// Hierarchy level at which src and dst diverge (0 = same lowest node).
  [[nodiscard]] unsigned divergence_level(TileId src, TileId dst) const;

  [[nodiscard]] unsigned req_latency(std::uint8_t cls) const {
    return class_req_lat_[cls];
  }
  [[nodiscard]] unsigned rsp_latency(std::uint8_t cls) const {
    return class_rsp_lat_[cls];
  }
  /// Zero-load round-trip in cycles for a class (1 + req + rsp).
  [[nodiscard]] unsigned round_trip(std::uint8_t cls) const {
    return 1 + class_req_lat_[cls] + class_rsp_lat_[cls];
  }

  /// Human-readable class name for reports ("intra-L0", "L1-sib2", ...).
  [[nodiscard]] std::string class_name(std::uint8_t cls) const;

 private:
  std::vector<unsigned> level_sizes_;
  std::vector<LevelLatency> level_latency_;
  unsigned num_tiles_ = 0;
  unsigned num_classes_ = 0;
  std::vector<std::uint8_t> class_table_;  // [src * num_tiles + dst]
  std::vector<unsigned> class_req_lat_;
  std::vector<unsigned> class_rsp_lat_;
};

}  // namespace tcdm
