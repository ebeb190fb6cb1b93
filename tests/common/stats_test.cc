#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace pad {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(5.0);
  EXPECT_EQ(stats.count(), 1);
  EXPECT_EQ(stats.mean(), 5.0);
}

TEST(RunningStatsTest, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 4.0, 2.0, 8.0, 5.0, 7.0};
  RunningStats stats;
  for (double x : xs) {
    stats.Add(x);
  }
  double mean = 0.0;
  for (double x : xs) {
    mean += x;
  }
  mean /= xs.size();
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
}

TEST(SampleSetTest, PercentilesExact) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) {
    set.Add(i);
  }
  EXPECT_DOUBLE_EQ(set.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(set.Percentile(100.0), 100.0);
  EXPECT_NEAR(set.Median(), 50.5, 1e-9);
  EXPECT_NEAR(set.Percentile(25.0), 25.75, 1e-9);
  EXPECT_NEAR(set.Percentile(90.0), 90.1, 1e-9);
}

TEST(SampleSetTest, PercentileSingleSample) {
  SampleSet set;
  set.Add(42.0);
  EXPECT_EQ(set.Percentile(0.0), 42.0);
  EXPECT_EQ(set.Percentile(50.0), 42.0);
  EXPECT_EQ(set.Percentile(100.0), 42.0);
}

TEST(SampleSetTest, AddAfterPercentileInvalidatesSortCache) {
  SampleSet set;
  set.Add(10.0);
  set.Add(20.0);
  EXPECT_EQ(set.max(), 20.0);
  set.Add(30.0);
  EXPECT_EQ(set.max(), 30.0);
  EXPECT_DOUBLE_EQ(set.Percentile(100.0), 30.0);
}

TEST(WeightedMeanTest, Basics) {
  WeightedMean wm;
  EXPECT_DOUBLE_EQ(wm.mean(), 0.0);
  wm.Add(10.0, 1.0);
  wm.Add(20.0, 3.0);
  EXPECT_DOUBLE_EQ(wm.mean(), 17.5);
  EXPECT_DOUBLE_EQ(wm.total_weight(), 4.0);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace pad
