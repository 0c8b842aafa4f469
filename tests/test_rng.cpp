#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace syncpat::util {
namespace {

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 a(0);
  SplitMix64 b(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(9);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

// chance_below(chance_threshold(p)) must give exactly chance(p)'s answer on
// every draw: the generator's streams depend on it.
TEST(Rng, ChanceThresholdMatchesUniformComparison) {
  const double ps[] = {0.0,
                       -0.1,
                       std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::denorm_min(),
                       0x1.0p-53,
                       1.0 / 64.0,
                       0.35,
                       0.5,
                       1.0 - 0x1.0p-53,
                       1.0,
                       1.5};
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
  Rng pick(53);
  for (const double p : ps) {
    SCOPED_TRACE(p);
    const std::uint64_t t = chance_threshold(p);
    ASSERT_LE(t, kTop + 1);
    // uniform() is exactly n * 2^-53 for the draw's 53-bit integer n.
    const auto agrees = [&](std::uint64_t n) {
      return (n < t) == (static_cast<double>(n) * 0x1.0p-53 < p);
    };
    for (const std::uint64_t n : {t - 1, t, t + 1, std::uint64_t{0}, kTop}) {
      if (n <= kTop) {
        EXPECT_TRUE(agrees(n)) << "n = " << n;
      }
    }
    for (int i = 0; i < 10'000; ++i) {
      const std::uint64_t n = pick.next_u53();
      ASSERT_TRUE(agrees(n)) << "n = " << n;
    }
    // And through the generator's own calls, on one stream drawn twice.
    Rng a(59);
    Rng b(59);
    for (int i = 0; i < 10'000; ++i) ASSERT_EQ(a.chance(p), b.chance_below(t));
  }
  EXPECT_EQ(chance_threshold(0.5), std::uint64_t{1} << 52);
  EXPECT_EQ(chance_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(chance_threshold(std::numeric_limits<double>::denorm_min()), 1u);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(23);
  const double p = 0.25;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.15);
}

TEST(Rng, GeometricProbabilityOneIsZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

// The sampler's table must give geometric_from_log's value for every 53-bit
// integer, on both sides of every step the table holds.  The steps are
// found here the slow way, by binary search on the formula itself.
TEST(GeometricSampler, MatchesTheFormulaOnBothSidesOfEveryStep) {
  constexpr std::uint64_t kEnd = std::uint64_t{1} << 53;
  Rng pick(61);
  for (const double mean_gap :
       {1.01, 1.5, 2.03, 2.28, 2.37, 2.38, 2.4, 3.0, 3.97, 10.0, 40.0, 100.0}) {
    SCOPED_TRACE(mean_gap);
    const double log1m_p = std::log1p(-1.0 / mean_gap);
    const GeometricSampler sampler(log1m_p);
    const auto formula = [&](std::uint64_t n) {
      const double u = static_cast<double>(n) * 0x1.0p-53;
      return static_cast<std::uint64_t>(std::log1p(-u) / log1m_p);
    };
    std::uint64_t lo = 0;
    for (std::uint64_t k = 1; k <= 40; ++k) {
      std::uint64_t hi = kEnd;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (formula(mid) >= k) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      for (const std::uint64_t n : {lo - 1, lo, lo + 1}) {
        if (n < kEnd) {
          ASSERT_EQ(sampler.value_of(n), formula(n)) << "k " << k << " n " << n;
        }
      }
    }
    for (const std::uint64_t n : {std::uint64_t{0}, kEnd - 1}) {
      EXPECT_EQ(sampler.value_of(n), formula(n)) << "n " << n;
    }
    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t n = pick.next_u53();
      ASSERT_EQ(sampler.value_of(n), formula(n)) << "n " << n;
    }
    GeometricSampler drawing(log1m_p);
    Rng a(67);
    Rng b(67);
    for (int i = 0; i < 20'000; ++i) {
      ASSERT_EQ(drawing.draw(a), b.geometric_from_log(log1m_p));
    }
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(31);
  const double mean = 120.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.exponential_cycles(mean));
  }
  EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

TEST(Rng, ExponentialZeroMean) {
  Rng rng(37);
  EXPECT_EQ(rng.exponential_cycles(0.0), 0u);
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng rng(41);
  const std::array<double, 3> weights = {1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.weighted_pick(weights)];
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedPickSingleElement) {
  Rng rng(43);
  const std::array<double, 1> weights = {5.0};
  EXPECT_EQ(rng.weighted_pick(weights), 0u);
}

// weighted_pick input validation: a NaN weight slips past every comparison in
// the subtraction scan (NaN compares false), and a negative weight can push
// the scan index out of range — both must abort via SYNCPAT_ASSERT, never
// silently bias the pick.
using RngDeath = ::testing::Test;

TEST(RngDeath, WeightedPickRejectsNaNWeight) {
  Rng rng(47);
  const std::array<double, 3> weights = {1.0, std::nan(""), 2.0};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "finite");
}

TEST(RngDeath, WeightedPickRejectsNegativeWeight) {
  Rng rng(53);
  const std::array<double, 2> weights = {1.0, -0.5};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "finite");
}

TEST(RngDeath, WeightedPickRejectsInfiniteWeight) {
  Rng rng(59);
  const std::array<double, 2> weights = {
      1.0, std::numeric_limits<double>::infinity()};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "finite");
}

TEST(RngDeath, WeightedPickRejectsAllZeroWeights) {
  Rng rng(61);
  const std::array<double, 3> weights = {0.0, 0.0, 0.0};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "positive");
}

// Property sweep: uniformity of below() over several seeds and bounds.
class RngUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformity, BelowIsRoughlyUniform) {
  Rng rng(GetParam());
  constexpr std::uint64_t kBound = 8;
  std::array<int, kBound> counts{};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBound)];
  for (std::uint64_t b = 0; b < kBound; ++b) {
    EXPECT_NEAR(counts[b] / static_cast<double>(kDraws), 1.0 / kBound, 0.01)
        << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformity,
                         ::testing::Values(1, 2, 42, 0xdeadbeef, 99999));

}  // namespace
}  // namespace syncpat::util
