#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace pad {
namespace {

// Reference outputs of SplitMix64 from state 0 (Vigna's splitmix64.c). Rng
// seeding, seed derivation and every deterministic hash go through this
// function, so these pin all golden digests at once.
TEST(SplitMix64Test, MatchesPublishedVectorsFromStateZero) {
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(SplitMix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(SplitMix64(state), 0x06c45d188009454full);
  EXPECT_EQ(state, 3 * kSplitMix64Gamma);
  // The bare finalizer is the step without the increment.
  EXPECT_EQ(Mix64(kSplitMix64Gamma), 0xe220a8397b1dcdafull);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, AdjacentSeedsDecorrelated) {
  // SplitMix64 seeding should scatter even consecutive integer seeds.
  Rng a(100);
  Rng b(101);
  double mean_diff = 0.0;
  for (int i = 0; i < 1000; ++i) {
    mean_diff += std::fabs(a.NextDouble() - b.NextDouble());
  }
  mean_diff /= 1000.0;
  // Independent U(0,1) pairs have E|X-Y| = 1/3.
  EXPECT_NEAR(mean_diff, 1.0 / 3.0, 0.05);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const int64_t x = rng.UniformInt(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(9, 9), 9);
  }
}

TEST(RngTest, UniformIntUnbiased) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(rng.UniformInt(0, 9))];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliMean) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(13);
  std::vector<double> xs;
  const int n = 20001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) {
    xs.push_back(rng.LogNormal(1.0, 0.5));
  }
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], std::exp(1.0), 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(0.5);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MatchesMeanAndVariance) {
  const double mean = GetParam();
  Rng rng(19);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const int x = rng.Poisson(mean);
    ASSERT_GE(x, 0);
    sum += x;
    sum_sq += static_cast<double>(x) * x;
  }
  const double sample_mean = sum / n;
  const double sample_var = sum_sq / n - sample_mean * sample_mean;
  EXPECT_NEAR(sample_mean, mean, std::max(0.05, 0.03 * mean));
  EXPECT_NEAR(sample_var, mean, std::max(0.1, 0.06 * mean));
}

// Covers both the inversion (< 30) and PTRS (>= 30) code paths.
INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanTest,
                         ::testing::Values(0.1, 0.5, 2.0, 10.0, 29.5, 30.5, 80.0, 300.0));

TEST(RngTest, PoissonZeroMean) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Poisson(0.0), 0);
  }
}

TEST(RngTest, ZipfRanksAreValidAndSkewed) {
  Rng rng(23);
  ZipfTable table(100, 1.0);
  std::vector<int> counts(100, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const int rank = table.Sample(rng);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, 100);
    ++counts[static_cast<size_t>(rank)];
  }
  // Rank 0 should appear ~1/H(100) = ~19% of the time; rank 99 ~0.19%.
  EXPECT_GT(counts[0], counts[99] * 10);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.193, 0.02);
}

TEST(RngTest, ZipfExponentZeroIsUniform) {
  Rng rng(29);
  ZipfTable table(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(table.Sample(rng))];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.015);
  }
}

TEST(RngTest, WeightedChoiceProportions) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(rng.WeightedChoice(weights))];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.01);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(37);
  for (int n : {0, 1, 2, 10, 100}) {
    std::vector<int> perm = rng.Permutation(n);
    ASSERT_EQ(perm.size(), static_cast<size_t>(n));
    std::vector<int> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
    }
  }
}

TEST(RngTest, PermutationShuffles) {
  Rng rng(41);
  int fixed_points = 0;
  const int trials = 200;
  const int n = 20;
  for (int t = 0; t < trials; ++t) {
    const std::vector<int> perm = rng.Permutation(n);
    for (int i = 0; i < n; ++i) {
      if (perm[static_cast<size_t>(i)] == i) {
        ++fixed_points;
      }
    }
  }
  // A uniform random permutation has 1 fixed point in expectation.
  EXPECT_NEAR(static_cast<double>(fixed_points) / trials, 1.0, 0.4);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng parent(55);
  Rng child = parent.Fork();
  // Child's draws should differ from the parent's subsequent draws.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(77);
  Rng b(77);
  Rng ca = a.Fork();
  Rng cb = b.Fork();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ca.NextU64(), cb.NextU64());
  }
}

}  // namespace
}  // namespace pad
