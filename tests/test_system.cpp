// System layer (src/system/): multi-cluster lockstep over the modeled
// L2/NoC. Covers the N == 1 degenerate identity with a bare Cluster run,
// bit-identical determinism across all three stepping modes at N == 4 and
// N == 8, DMA payload accounting and checksums, monotone aggregate-bandwidth
// weak scaling 1 -> 8, cross-kind correctness of the global barrier, and
// which cluster's DeadlockError a faulting system surfaces.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/kernel_runner.hpp"
#include "src/common/sim_time.hpp"
#include "src/kernels/axpy.hpp"
#include "src/kernels/dotp.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using test::mp4_config;

SystemConfig small_system(unsigned clusters) {
  SystemConfig sys;
  sys.name = "testsys";
  sys.num_clusters = clusters;
  sys.dma_words = 256;
  sys.dma_burst_len = 16;
  return sys;
}

std::vector<std::unique_ptr<Kernel>> axpy_per_cluster(unsigned n) {
  std::vector<std::unique_ptr<Kernel>> kernels;
  for (unsigned c = 0; c < n; ++c) {
    kernels.push_back(std::make_unique<AxpyKernel>(768, 1.25f, 11));
  }
  return kernels;
}

RunnerOptions capped_opts() {
  RunnerOptions opts;
  opts.max_cycles = 5'000'000;
  return opts;
}

/// Everything a system run can observably produce, for bit-exact diffs.
struct SystemImage {
  KernelMetrics metrics;
  std::vector<std::string> stats_json;  // per cluster, index order
};

SystemImage run_image(System& system) {
  SystemImage img;
  img.metrics =
      run_system_kernel(system, axpy_per_cluster(system.num_clusters()), capped_opts());
  for (unsigned c = 0; c < system.num_clusters(); ++c) {
    img.stats_json.push_back(system.cluster(c).stats().to_json());
  }
  return img;
}

// ------------------------------------------------------------ degeneracy ----

TEST(SystemDegenerate, SingleClusterMatchesBareClusterExactly) {
  const ClusterConfig cfg = mp4_config(4);
  AxpyKernel bare_kernel(768, 1.25f, 11);
  Cluster bare(cfg, SimOptions{});
  const KernelMetrics bare_m = run_kernel_on(bare, bare_kernel, capped_opts());

  System system(small_system(1), cfg, SimOptions{});
  const SystemImage sys = run_image(system);

  EXPECT_EQ(sys.metrics.cycles, bare_m.cycles);
  EXPECT_EQ(sys.metrics.flops, bare_m.flops);
  EXPECT_EQ(sys.metrics.bytes, bare_m.bytes);
  EXPECT_EQ(sys.metrics.clusters, 1u);
  EXPECT_EQ(sys.metrics.noc_bytes, 0.0);  // no DMA phase at N == 1
  EXPECT_EQ(sys.stats_json.front(), bare.stats().to_json());
}

// ---------------------------------------------------------- determinism ----

TEST(SystemDeterminism, BitIdenticalAcrossSteppingModes) {
  const ClusterConfig cfg = mp4_config(4);
  for (const unsigned n : {4u, 8u}) {
    const SystemConfig sys_cfg = small_system(n);

    // Reference: cycle-by-cycle.
    System ref(sys_cfg, cfg, SimOptions{SteppingMode::kCycleByCycle});
    const SystemImage ref_img = run_image(ref);
    ASSERT_FALSE(ref_img.metrics.timed_out);
    ASSERT_TRUE(ref_img.metrics.verified);

    for (const SteppingMode mode :
         {SteppingMode::kEventDriven, SteppingMode::kCrossCheck}) {
      System sys(sys_cfg, cfg, SimOptions{mode});
      const SystemImage img = run_image(sys);
      // Full per-cluster stats differ only in the `sim.*` bookkeeping
      // counters across modes (EV1-EV3), so the cross-mode identity is
      // asserted on the simulated state: metrics, payloads, verification.
      EXPECT_EQ(img.metrics.cycles, ref_img.metrics.cycles)
          << n << " clusters, mode " << static_cast<int>(mode);
      EXPECT_EQ(img.metrics.flops, ref_img.metrics.flops);
      EXPECT_EQ(img.metrics.noc_bytes, ref_img.metrics.noc_bytes);
      EXPECT_EQ(img.metrics.verified, ref_img.metrics.verified);
    }
  }
}

// ------------------------------------------------------------------ DMA ----

TEST(SystemDma, MovesTheConfiguredPayloadAndChecksums) {
  const ClusterConfig cfg = mp4_config(4);
  SystemConfig sys_cfg = small_system(4);
  System system(sys_cfg, cfg, SimOptions{});
  const SystemImage img = run_image(system);
  ASSERT_TRUE(img.metrics.verified);
  // Every cluster gathers dma_words from its ring neighbor.
  EXPECT_EQ(img.metrics.noc_bytes, 4.0 * sys_cfg.dma_words * kWordBytes);
  EXPECT_TRUE(system.dma_checksums_ok());
  EXPECT_TRUE(system.done());
}

TEST(SystemDma, ZeroWordsSkipsTheExchange) {
  const ClusterConfig cfg = mp4_config(4);
  SystemConfig sys_cfg = small_system(2);
  sys_cfg.dma_words = 0;
  System system(sys_cfg, cfg, SimOptions{});
  const SystemImage img = run_image(system);
  ASSERT_TRUE(img.metrics.verified);
  EXPECT_EQ(img.metrics.noc_bytes, 0.0);
  EXPECT_TRUE(system.done());
}

TEST(SystemDma, RejectsPayloadBeyondTcdmCapacity) {
  const ClusterConfig cfg = mp4_config(0);
  SystemConfig sys_cfg = small_system(2);
  sys_cfg.dma_words = cfg.num_banks() * cfg.bank_words + 1;
  EXPECT_THROW((System{sys_cfg, cfg, SimOptions{}}), std::invalid_argument);
}

// ----------------------------------------------------------- weak scaling ----

TEST(SystemScaling, AggregateBandwidthIsMonotoneOneToEight) {
  const ClusterConfig cfg = mp4_config(4);
  double prev_bw = 0.0;
  for (const unsigned n : {1u, 2u, 4u, 8u}) {
    SystemConfig sys_cfg = small_system(n);
    sys_cfg.dma_burst_len = 32;
    System system(sys_cfg, cfg, SimOptions{});
    std::vector<std::unique_ptr<Kernel>> kernels;
    for (unsigned c = 0; c < n; ++c) {
      kernels.push_back(std::make_unique<DotpKernel>(4096));
    }
    const KernelMetrics m = run_system_kernel(system, kernels, capped_opts());
    ASSERT_TRUE(m.verified) << n;
    ASSERT_FALSE(m.timed_out) << n;
    EXPECT_GT(m.bw_bytes_per_cycle, prev_bw) << n << " clusters";
    prev_bw = m.bw_bytes_per_cycle;
  }
}

// -------------------------------------------------------- barrier kinds ----

TEST(SystemBarrierKinds, AllKindsCompleteAndVerify) {
  const ClusterConfig cfg = mp4_config(4);
  Cycle central_cycles = 0;
  for (const BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kButterfly}) {
    SystemConfig sys_cfg = small_system(4);
    sys_cfg.barrier_kind = kind;
    System system(sys_cfg, cfg, SimOptions{});
    EXPECT_EQ(system.global_barrier().kind(), kind);
    const SystemImage img = run_image(system);
    ASSERT_TRUE(img.metrics.verified) << barrier_kind_name(kind);
    ASSERT_FALSE(img.metrics.timed_out) << barrier_kind_name(kind);
    if (kind == BarrierKind::kCentral) central_cycles = img.metrics.cycles;
  }
  EXPECT_GT(central_cycles, 0u);
}

// ---------------------------------------------------------------- faults ----

TEST(SystemFaults, DeadlockSurfacesTheLowestIndexCluster) {
  // Clusters 1 and 3 deadlock at a mismatched barrier (hart 0 halts, the
  // rest wait forever); clusters 0 and 2 halt immediately. Both watchdogs
  // expire in the same cycle, and clusters step in ascending index, so the
  // run must surface cluster 1's DeadlockError: cluster 0 has already
  // stepped that cycle, clusters 1-3 have not.
  const ClusterConfig cfg = mp4_config(4);
  System system(small_system(4), cfg, SimOptions{});
  system.set_watchdog_window(2000);
  for (unsigned c = 0; c < system.num_clusters(); ++c) {
    std::vector<Program> programs;
    for (unsigned h = 0; h < cfg.num_cores(); ++h) {
      if ((c % 2 == 1) && h > 0) {
        ProgramBuilder w("wait");
        w.barrier();
        w.halt();
        programs.push_back(w.build());
      } else {
        ProgramBuilder done("done");
        done.halt();
        programs.push_back(done.build());
      }
    }
    system.cluster(c).load_programs(std::move(programs));
  }
  try {
    (void)system.run(1'000'000);
    FAIL() << "deadlock run returned normally";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("no simulation progress for 2000 cycles"),
              std::string::npos)
        << e.what();
  }
  const Cycle fired = system.cluster(1).now();
  EXPECT_GT(fired, 2000u);
  EXPECT_EQ(system.cluster(0).now(), fired + 1);
  EXPECT_EQ(system.cluster(2).now(), fired);
  EXPECT_EQ(system.cluster(3).now(), fired);
}

}  // namespace
}  // namespace tcdm
