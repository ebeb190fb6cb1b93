// Unit tests for the parallel sweep engine.
//
// The serial-vs-parallel *equivalence* guarantee is exercised here at unit
// scale (a handful of tiny runs) and at system scale in
// tests/integration/parallel_determinism_test.cc.
#include "src/core/sweep.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/units.h"

namespace pad {
namespace {

PadConfig TinyConfig(int num_users) {
  PadConfig config = QuickConfig();
  config.population.num_users = num_users;
  config.population.horizon_s = 9.0 * kDay;
  return config;
}

TEST(SweepTest, ResultsComeBackInSubmissionOrder) {
  // Distinct horizons make each job's scored_days identify it.
  std::vector<PadConfig> configs;
  for (int extra_day = 0; extra_day < 4; ++extra_day) {
    PadConfig config = TinyConfig(6);
    config.population.horizon_s = (9.0 + extra_day) * kDay;
    configs.push_back(config);
  }
  const std::vector<Comparison> results = RunComparisonMany(configs, {.threads = 4});
  ASSERT_EQ(results.size(), configs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].pad.scored_days, 2.0 + static_cast<double>(i)) << "i=" << i;
  }
}

TEST(SweepTest, ParallelComparisonMatchesSerialLoop) {
  std::vector<PadConfig> configs;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    PadConfig config = TinyConfig(8);
    config.seed = seed;
    config.population.seed = seed * 101;
    configs.push_back(config);
  }

  std::vector<Comparison> serial;
  for (const PadConfig& config : configs) {
    serial.push_back(RunComparison(config));
  }
  const std::vector<Comparison> parallel = RunComparisonMany(configs, {.threads = 3});

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(ComparisonDigest(parallel[i]), ComparisonDigest(serial[i])) << "i=" << i;
  }
}

TEST(SweepTest, SharedInputRunsMatchSerialIncludingEventLogs) {
  PadConfig base = TinyConfig(8);
  const SimInputs inputs = GenerateInputs(base);

  std::vector<PadConfig> points;
  for (double confidence : {0.2, 0.4, 0.6}) {
    PadConfig point = base;
    point.capacity_confidence = confidence;
    points.push_back(point);
  }

  std::vector<EventLog> serial_logs(points.size());
  std::vector<PadRunResult> serial;
  for (size_t i = 0; i < points.size(); ++i) {
    serial.push_back(RunPad(points[i], inputs, &serial_logs[i]));
  }

  std::vector<EventLog> parallel_logs;
  const std::vector<PadRunResult> parallel =
      RunPadMany(points, inputs, {.threads = 3}, &parallel_logs);

  ASSERT_EQ(parallel.size(), serial.size());
  ASSERT_EQ(parallel_logs.size(), serial_logs.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(MetricsDigest(parallel[i]), MetricsDigest(serial[i])) << "i=" << i;
    EXPECT_EQ(parallel_logs[i].Digest(), serial_logs[i].Digest()) << "i=" << i;
    EXPECT_EQ(parallel_logs[i].events().size(), serial_logs[i].events().size()) << "i=" << i;
  }
}

TEST(SweepTest, DigestDistinguishesDifferentRuns) {
  PadConfig a = TinyConfig(8);
  PadConfig b = TinyConfig(8);
  b.deadline_s = 2.0 * kHour;
  const Comparison ca = RunComparison(a);
  const Comparison cb = RunComparison(b);
  EXPECT_NE(ComparisonDigest(ca), ComparisonDigest(cb));
  // Same config twice: identical digest (the run itself is deterministic).
  EXPECT_EQ(ComparisonDigest(ca), ComparisonDigest(RunComparison(a)));
}

}  // namespace
}  // namespace pad
