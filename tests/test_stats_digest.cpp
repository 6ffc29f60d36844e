// Counter-exact gate for speed-only changes. The emitted metrics carry only
// a few counters, so the emission identity gates cannot show that a host-side
// optimisation left the rest untouched: stall_*, conflict_cycles,
// network.egress_blocked_cycles, fifo_full_events and every other entry of
// the statistics registry. This suite pins, per scenario, the final cycle
// count and an FNV-1a digest of the sorted registry snapshot (each name and
// the IEEE-754 bits of its value; the sim.* stepping bookkeeping is left
// out, since it legitimately differs between stepping modes), under both
// event and cycle stepping.
//
// A digest that moves means some counter moved. Re-pin the values only for
// a change that is meant to alter simulated behaviour, and say so in the
// change log.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/cluster/cluster.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/fft.hpp"
#include "src/kernels/matmul.hpp"
#include "src/kernels/probes.hpp"

namespace tcdm {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// FNV-1a over (name, NUL, value bits) of every non-sim.* counter, in the
/// registry's sorted order.
std::uint64_t stats_digest(const StatsRegistry& stats) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [name, value] : stats.snapshot()) {
    if (name.rfind("sim.", 0) == 0) continue;
    fnv1a(h, name.data(), name.size() + 1);
    const auto bits = std::bit_cast<std::uint64_t>(value);
    fnv1a(h, &bits, sizeof bits);
  }
  return h;
}

struct DigestCase {
  const char* name;
  std::function<ClusterConfig()> config;
  std::function<std::unique_ptr<Kernel>()> kernel;
  Cycle cycles;
  std::uint64_t digest;
};

ClusterConfig with_max_burst_len(ClusterConfig cfg, unsigned len) {
  cfg.max_burst_len = len;
  return cfg;
}

const DigestCase kCases[] = {
    {"mp4_gf4_store_memcpy",
     [] { return ClusterConfig::mp4spatz4().with_burst(4).with_store_bursts(2); },
     [] { return std::make_unique<MemcpyKernel>(1024); },
     170, 0x44c9511a2bd5679bULL},
    {"mp4_gf4_strided_copy",
     [] { return ClusterConfig::mp4spatz4().with_burst(4).with_strided_bursts(); },
     [] { return std::make_unique<StridedCopyKernel>(512, 2); },
     175, 0x20dbd8e3b870f435ULL},
    {"mp4_len2_random_probe",
     [] { return with_max_burst_len(ClusterConfig::mp4spatz4().with_burst(4), 2); },
     [] { return std::make_unique<RandomProbeKernel>(64); },
     821, 0xae6947bd10c05b12ULL},
    {"mp64_baseline_fft",
     [] { return ClusterConfig::mp64spatz4(); },
     [] { return std::make_unique<FftKernel>(4, 512); },
     3416, 0xda2362e1c571246bULL},
    {"mp64_gf4_dotp",
     [] { return ClusterConfig::mp64spatz4().with_burst(4); },
     [] { return std::make_unique<DotpKernel>(16384); },
     908, 0x52f06db18323be53ULL},
    {"mp128_gf2_matmul_s",
     [] { return ClusterConfig::mp128spatz8().with_burst(2); },
     [] { return std::make_unique<MatmulKernel>(128, 4); },
     5514, 0xe35bd2542c40407eULL},
};

class StatsDigest : public ::testing::TestWithParam<SteppingMode> {};

TEST_P(StatsDigest, CountersMatchPinnedDigest) {
  for (const DigestCase& c : kCases) {
    SimOptions sim;
    sim.stepping = GetParam();
    Cluster cluster(c.config(), sim);
    const std::unique_ptr<Kernel> kernel = c.kernel();
    const KernelMetrics m = run_kernel_on(cluster, *kernel);
    EXPECT_TRUE(m.verified) << c.name;
    EXPECT_EQ(m.cycles, c.cycles) << c.name;
    EXPECT_EQ(stats_digest(cluster.stats()), c.digest)
        << c.name << ": 0x" << std::hex << stats_digest(cluster.stats());
  }
}

INSTANTIATE_TEST_SUITE_P(Stepping, StatsDigest,
                         ::testing::Values(SteppingMode::kEventDriven, SteppingMode::kCycleByCycle),
                         [](const auto& info) {
                           return info.param == SteppingMode::kEventDriven ? std::string("event")
                                                                     : std::string("cycle");
                         });

}  // namespace
}  // namespace tcdm
