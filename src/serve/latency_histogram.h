// Log-bucketed latency histogram (HDR style) for the serving path.
//
// Recording a latency must cost two relaxed atomic increments — the load
// generator's worker threads and the server share histograms concurrently,
// and a mutex on the record path would serialize exactly the measurement it
// exists to take. The trade is resolution: values land in geometric buckets
// with kSubBucketBits sub-buckets per power of two, so any reported quantile
// is exact for values below 2^kSubBucketBits and within a 1/2^kSubBucketBits
// (~3.1%) relative error above — plenty for p50/p99/p999 rows whose CI gate
// tolerances are tens of percent.
//
// Quantile convention: ValueAtQuantile(q) is the inclusive upper bound of
// the first bucket whose cumulative count reaches rank ceil(q * count)
// (nearest-rank). The property tests pin this against a sorted-vector
// oracle: the returned value is BucketUpper(BucketIndex(oracle_value)).
#ifndef ADPAD_SRC_SERVE_LATENCY_HISTOGRAM_H_
#define ADPAD_SRC_SERVE_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace pad {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // Octave 0 holds values [0, kSubBuckets) exactly; each higher octave o
  // covers [2^(kSubBucketBits+o-1), 2^(kSubBucketBits+o)) in kSubBuckets
  // equal-width buckets. 64-bit values need 64 - kSubBucketBits octaves.
  static constexpr int kNumOctaves = 64 - kSubBucketBits;
  static constexpr int kNumBuckets = (kNumOctaves + 1) * kSubBuckets;

  LatencyHistogram() = default;
  // Atomic members: neither copyable nor movable; pass by reference.
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  // Thread-safe, wait-free. Units are whatever the caller measures in
  // (the serving benches record nanoseconds).
  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // Exact extremes (not bucketed). min() of an empty histogram is 0.
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  // Nearest-rank quantile, q in [0, 1]. Returns 0 on an empty histogram.
  uint64_t ValueAtQuantile(double q) const;

  uint64_t BucketCount(int index) const {
    return counts_[static_cast<size_t>(index)].load(std::memory_order_relaxed);
  }

  // The bucketing map, exposed for the oracle tests.
  static int BucketIndex(uint64_t value);
  static uint64_t BucketUpper(int index);  // Inclusive upper bound.

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
};

}  // namespace pad

#endif  // ADPAD_SRC_SERVE_LATENCY_HISTOGRAM_H_
