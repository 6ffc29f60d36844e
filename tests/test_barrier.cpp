// Barrier kinds (central / tree / butterfly): release-delay models,
// generation protocol, the named over-arrival contract error and name round
// trips. Whole-system runs under every kind are covered by test_system.
#include <gtest/gtest.h>

#include <string>

#include "src/cluster/barrier.hpp"

namespace tcdm {
namespace {

// --------------------------------------------------- names & construction ----

TEST(BarrierKindNames, RoundTrip) {
  for (const BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kButterfly}) {
    EXPECT_EQ(barrier_kind_from_name(barrier_kind_name(kind)), kind);
  }
  EXPECT_STREQ(barrier_kind_name(BarrierKind::kCentral), "central");
  EXPECT_STREQ(barrier_kind_name(BarrierKind::kTree), "tree");
  EXPECT_STREQ(barrier_kind_name(BarrierKind::kButterfly), "butterfly");
  EXPECT_THROW((void)barrier_kind_from_name("ring"), std::invalid_argument);
}

TEST(BarrierConstruction, KeepsTheRequestedKind) {
  for (const BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kButterfly}) {
    EXPECT_EQ(Barrier(kind, 8, 5, 4).kind(), kind) << barrier_kind_name(kind);
  }
}

TEST(BarrierConstruction, TreeRejectsRadixBelowTwo) {
  EXPECT_THROW((void)Barrier(BarrierKind::kTree, 8, 5, 1), std::invalid_argument);
}

// -------------------------------------------------------- release delays ----

/// Drive `n` arrivals at `now` and report when the release lands.
Cycle release_cycle(Barrier& b, unsigned n, Cycle now) {
  for (unsigned h = 0; h < n; ++h) b.arrive(h, now);
  EXPECT_TRUE(b.release_pending());
  return b.release_at();
}

TEST(BarrierDelay, CentralIsTheConfiguredLatencyRegardlessOfSize) {
  for (unsigned n : {2u, 16u, 256u}) {
    Barrier b(BarrierKind::kCentral, n, 7);
    EXPECT_EQ(release_cycle(b, n, 100), 107u) << n;
  }
}

TEST(BarrierDelay, TreeIsTwoTraversalsOfTheReductionTree) {
  // 16 members radix 2: 4 levels, up + down at link latency 3 -> 24.
  Barrier r2(BarrierKind::kTree, 16, 3, 2);
  EXPECT_EQ(r2.release_delay(), 24u);
  EXPECT_EQ(release_cycle(r2, 16, 100), 124u);
  // Radix 4 halves the level count: ceil(log4(16)) = 2 -> 12.
  Barrier r4(BarrierKind::kTree, 16, 3, 4);
  EXPECT_EQ(release_cycle(r4, 16, 100), 112u);
  // Non-power sizes round up: 5 members radix 2 -> 3 levels, 2 * 3 * 1.
  EXPECT_EQ(Barrier(BarrierKind::kTree, 5, 1, 2).release_delay(), 6u);
}

TEST(BarrierDelay, ButterflyIsOneDisseminationPass) {
  // ceil(log2(16)) = 4 stages at link latency 3 -> 12: half the tree cost.
  Barrier b(BarrierKind::kButterfly, 16, 3);
  EXPECT_EQ(b.release_delay(), 12u);
  EXPECT_EQ(release_cycle(b, 16, 100), 112u);
}

// --------------------------------------------------- generation protocol ----

TEST(BarrierProtocol, GenerationAdvancesOnReleaseAndCountsClear) {
  Barrier b(BarrierKind::kCentral, 4, 2);
  EXPECT_EQ(b.generation(), 0u);
  for (unsigned h = 0; h < 4; ++h) b.arrive(h, 10);
  b.cycle(11);  // before release_at: nothing happens
  EXPECT_EQ(b.generation(), 0u);
  EXPECT_EQ(b.arrived(), 4u);
  b.cycle(12);  // at release_at: release, clear, next generation
  EXPECT_EQ(b.generation(), 1u);
  EXPECT_EQ(b.arrived(), 0u);
  EXPECT_FALSE(b.release_pending());
}

TEST(BarrierProtocol, OverArrivalNamesTheOffendingHart) {
  Barrier b(BarrierKind::kCentral, 2, 2);
  b.arrive(0, 5);
  b.arrive(1, 5);
  try {
    b.arrive(7, 6);  // all members present, release not yet broadcast
    FAIL() << "expected BarrierContractError";
  } catch (const BarrierContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hart=7"), std::string::npos) << what;
    EXPECT_NE(what.find("central"), std::string::npos) << what;
    EXPECT_NE(what.find("generation 0"), std::string::npos) << what;
  }
}

TEST(BarrierProtocol, ResetRestoresTheConstructedState) {
  Barrier b(BarrierKind::kButterfly, 4, 3);
  for (unsigned h = 0; h < 4; ++h) b.arrive(h, 10);
  b.cycle(b.release_at());
  ASSERT_EQ(b.generation(), 1u);
  b.arrive(0, 20);  // partial arrival in generation 1
  b.reset();
  EXPECT_EQ(b.generation(), 0u);
  EXPECT_EQ(b.arrived(), 0u);
  EXPECT_FALSE(b.release_pending());
  EXPECT_EQ(b.release_at(), 0u);
}

}  // namespace
}  // namespace tcdm
