// System: N identical clusters composed over a modeled L2/NoC with a
// pluggable global barrier — the scale-out layer above Cluster
// (docs/ARCHITECTURE.md, "System layer").
//
// Run timeline (N > 1):
//   kernel phase   every cluster runs its own kernel; a cluster that halts
//                  arrives at the global barrier (generation 0).
//   DMA phase      on the generation-0 release every cluster gathers
//                  `dma_words` from its ring neighbor's TCDM through the
//                  NoC/L2 in bursts of `dma_burst_len` words (one header
//                  round trip per burst, payload streaming capped by the
//                  link width and the shared L2 budget), then arrives again
//                  (generation 1).
//   done           the generation-1 release ends the run.
//
// Every simulated cycle advances all clusters in lockstep through the fixed
// serial phase order cluster steps (by index) -> kernel-completion arrivals
// -> DMA/NoC cycle -> global barrier -> watchdog, mirroring the in-cluster
// D1 phase contract one level up: DMA only touches cluster state through
// the external-memory port (the host backdoor read path) after the owning
// cluster halted, and L2 grants rotate with the cycle number (D2), so
// results are bit-identical for all three stepping modes. A faulting
// cluster surfaces as the lowest-index cluster's exception.
//
// N == 1 degenerates to exactly Cluster::run — same cycles, same stats.
#pragma once

#include <memory>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/system/system_config.hpp"

namespace tcdm {

class System {
 public:
  /// N clusters of one shape. `cluster_cfg` is validated per Cluster; `sys`
  /// is validated here, including dma_words against the TCDM capacity.
  System(const SystemConfig& sys, const ClusterConfig& cluster_cfg,
         const SimOptions& sim = {});

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const ClusterConfig& cluster_config() const noexcept {
    return clusters_.front()->config();
  }
  [[nodiscard]] unsigned num_clusters() const noexcept {
    return static_cast<unsigned>(clusters_.size());
  }
  [[nodiscard]] Cluster& cluster(unsigned i) { return *clusters_.at(i); }
  [[nodiscard]] const Cluster& cluster(unsigned i) const { return *clusters_.at(i); }
  [[nodiscard]] Barrier& global_barrier() noexcept { return global_barrier_; }
  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] SteppingMode stepping() const noexcept { return stepping_; }

  /// Run to completion (kernel + DMA phases synchronized out) or
  /// `max_cycles`; throws DeadlockError when a cluster or the system-level
  /// watchdog fires. Time advances per the SimOptions stepping mode with
  /// one global skip decision across all clusters; all modes are
  /// bit-identical (apart from `sim.*` bookkeeping counters).
  RunOutcome run(Cycle max_cycles = 50'000'000);

  /// Propagates to every cluster and scales the system watchdog with it.
  void set_watchdog_window(Cycle window);

  // ---- aggregate metrics ----
  [[nodiscard]] double total_flops() const;
  [[nodiscard]] double bytes_accessed() const;
  /// Payload bytes the DMA phase moved across the NoC (all clusters).
  [[nodiscard]] double noc_bytes_transferred() const {
    return static_cast<double>(words_delivered_) * kWordBytes;
  }
  /// Sum of the clusters' `sim.cycles_skipped` diagnostics.
  [[nodiscard]] double cycles_skipped() const;
  /// End-to-end DMA integrity: every cluster's delivered-word checksum
  /// matches the golden checksum of its source range (guards the burst
  /// bookkeeping — duplicated, dropped or misordered words all fail).
  [[nodiscard]] bool dma_checksums_ok() const;
  /// True once the run completed (generation-1 release seen; for N == 1,
  /// the cluster halted).
  [[nodiscard]] bool done() const noexcept { return done_; }

 private:
  /// Per-cluster DMA gather engine. All timing state is kept as absolute
  /// cycle stamps so an event-driven jump over a header wait needs no
  /// countdown fixup (the same derive-from-now idiom as the in-cluster
  /// round-robin cursors).
  struct DmaEngine {
    enum class State : std::uint8_t { kWait, kHeader, kStream, kDone };
    State state = State::kWait;
    Cycle header_done_at = 0;
    unsigned words_done = 0;
    std::uint64_t checksum = 1469598103934665603ULL;   // FNV-1a rolling
    std::uint64_t golden = 1469598103934665603ULL;     // source-range reference
  };

  bool step();
  void start_dma(Cycle now);
  void dma_cycle(Cycle now);
  [[nodiscard]] Cycle dma_next_event() const;
  [[nodiscard]] bool dma_streaming() const;

  SystemConfig cfg_;
  SteppingMode stepping_ = SteppingMode::kEventDriven;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  Barrier global_barrier_;
  std::vector<DmaEngine> dma_;
  std::vector<char> kernel_arrived_;  // per cluster (vector<bool> is a bitfield)
  std::vector<Cycle> cluster_event_;  // per-skip-decision scratch
  bool dma_started_ = false;
  bool done_ = false;
  std::uint64_t words_delivered_ = 0;
  Cycle now_ = 0;
  Watchdog watchdog_;
  double last_progress_token_ = -1.0;
};

}  // namespace tcdm
