// LatencyHistogram contract: the bucketing map is exact below kSubBuckets and
// within 1/kSubBuckets relative error above; every reported quantile equals
// the bucketized nearest-rank value of a sorted-vector oracle; concurrent
// recording loses nothing.
#include "src/serve/latency_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "src/common/rng.h"

namespace pad {
namespace {

// The value the histogram reports for anything recorded as `value`.
uint64_t Bucketized(uint64_t value) {
  return LatencyHistogram::BucketUpper(LatencyHistogram::BucketIndex(value));
}

// Nearest-rank oracle over raw values, mirroring ValueAtQuantile's convention.
uint64_t OracleQuantile(std::vector<uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::max<uint64_t>(rank, 1);
  rank = std::min<uint64_t>(rank, values.size());
  return values[rank - 1];
}

TEST(BucketMapTest, ExactBelowSubBuckets) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(Bucketized(v), v);
  }
}

TEST(BucketMapTest, MonotoneAndBoundedError) {
  Rng rng(7);
  int last_index = -1;
  uint64_t last_value = 0;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform draw so every octave gets traffic.
    const int shift = static_cast<int>(rng.UniformInt(0, 62));
    const uint64_t value = (1ull << shift) | (rng.NextU64() & ((1ull << shift) - 1));
    const int index = LatencyHistogram::BucketIndex(value);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, LatencyHistogram::kNumBuckets);
    const uint64_t upper = LatencyHistogram::BucketUpper(index);
    ASSERT_GE(upper, value);
    // Relative error: bucket width is value/kSubBuckets at worst, so the
    // inclusive upper bound overshoots by strictly less than value/16.
    if (value >= LatencyHistogram::kSubBuckets) {
      ASSERT_LT(upper - value, value / 16 + 1);
    }
    if (last_index >= 0) {
      // Monotone: a larger value never lands in an earlier bucket.
      if (value >= last_value) {
        ASSERT_GE(index, last_index);
      }
    }
    last_index = index;
    last_value = value;
  }
}

TEST(BucketMapTest, OctaveBoundaries) {
  for (int shift = 5; shift < 63; ++shift) {
    const uint64_t base = 1ull << shift;
    // The last value below a power of two and the power itself sit in
    // adjacent buckets, and both round trips respect the bounds.
    EXPECT_EQ(LatencyHistogram::BucketIndex(base),
              LatencyHistogram::BucketIndex(base - 1) + 1)
        << "shift=" << shift;
    EXPECT_EQ(Bucketized(base - 1), base - 1) << "shift=" << shift;
    ASSERT_GE(Bucketized(base), base);
  }
  EXPECT_EQ(LatencyHistogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(Bucketized(std::numeric_limits<uint64_t>::max()),
            std::numeric_limits<uint64_t>::max());
}

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 0u);
  EXPECT_EQ(histogram.ValueAtQuantile(0.5), 0u);
}

TEST(LatencyHistogramTest, SingleValue) {
  LatencyHistogram histogram;
  histogram.Record(12345);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_EQ(histogram.min(), 12345u);
  EXPECT_EQ(histogram.max(), 12345u);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(histogram.ValueAtQuantile(q), Bucketized(12345));
  }
}

TEST(LatencyHistogramTest, QuantilesMatchSortedOracle) {
  Rng rng(42);
  std::vector<uint64_t> values;
  LatencyHistogram histogram;
  for (int i = 0; i < 10000; ++i) {
    // A latency-shaped distribution: lognormal body with a heavy tail.
    const uint64_t value = static_cast<uint64_t>(rng.LogNormal(10.0, 1.5));
    values.push_back(value);
    histogram.Record(value);
  }
  EXPECT_EQ(histogram.count(), values.size());
  EXPECT_EQ(histogram.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(histogram.max(), *std::max_element(values.begin(), values.end()));
  for (double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(histogram.ValueAtQuantile(q), Bucketized(OracleQuantile(values, q)))
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, QuantileClampsOutOfRangeQ) {
  LatencyHistogram histogram;
  histogram.Record(10);
  histogram.Record(20);
  EXPECT_EQ(histogram.ValueAtQuantile(-0.5), histogram.ValueAtQuantile(0.0));
  EXPECT_EQ(histogram.ValueAtQuantile(1.5), histogram.ValueAtQuantile(1.0));
}

TEST(LatencyHistogramTest, ConcurrentRecordLosesNothing) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(1 + (rng.NextU64() >> 40));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    bucket_total += histogram.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, histogram.count());
  EXPECT_GE(histogram.min(), 1u);
}

}  // namespace
}  // namespace pad
