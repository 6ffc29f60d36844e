// Kernel abstraction + memory layout helper.
//
// A Kernel owns its workload: it lays out data in the cluster's TCDM,
// builds the per-hart program(s), and can verify the simulated result
// against a host golden model. The KernelRunner (cluster/kernel_runner.hpp)
// builds a cluster for a configuration, runs the kernel and extracts the
// paper's metrics (cycles, FPU utilization, bandwidth, arithmetic
// intensity, GFLOPS at both frequency corners).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/cluster/cluster.hpp"
#include "src/common/bitutil.hpp"
#include "src/isa/program.hpp"

namespace tcdm {

/// Bump allocator over the TCDM address space. Arrays are aligned to a full
/// interleave stripe (num_banks words) so every array starts at tile 0,
/// bank 0 and spreads uniformly over all banks — the paper's fully
/// interleaved data placement.
class MemLayout {
 public:
  explicit MemLayout(const AddressMap& map)
      : stripe_bytes_(map.num_banks() * kWordBytes), limit_(map.total_bytes()) {}

  /// Allocate `words` 32-bit words; returns the base byte address.
  [[nodiscard]] Addr alloc_words(std::size_t words) {
    const Addr base = next_;
    const std::uint64_t bytes = align_up(words * kWordBytes, stripe_bytes_);
    if (base + bytes > limit_) {
      throw std::runtime_error("MemLayout: TCDM capacity exceeded (need " +
                               std::to_string(base + bytes) + " of " +
                               std::to_string(limit_) + " bytes)");
    }
    next_ = static_cast<Addr>(base + bytes);
    return base;
  }


 private:
  std::uint64_t stripe_bytes_;
  std::uint64_t limit_;
  Addr next_ = 0;
};

class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Human-readable problem size, e.g. "4096" or "4x2048" or "64x64x64".
  [[nodiscard]] virtual std::string size_desc() const = 0;

  /// Lay out data, preload it and load the program(s) into the cluster.
  virtual void setup(Cluster& cluster) = 0;

  /// Check the simulated result against the golden model.
  [[nodiscard]] virtual bool verify(const Cluster& cluster) const = 0;

  /// Bytes that count towards the bandwidth metric (default: all core<->TCDM
  /// traffic). Probes override this to exclude bookkeeping accesses.
  [[nodiscard]] virtual double traffic_bytes(const Cluster& cluster) const {
    return cluster.bytes_accessed();
  }
};

}  // namespace tcdm
