#include "src/serve/latency_histogram.h"

#include <bit>
#include <cmath>

#include "src/common/check.h"

namespace pad {

int LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < static_cast<uint64_t>(kSubBuckets)) {
    return static_cast<int>(value);
  }
  const int msb = 63 - std::countl_zero(value);  // >= kSubBucketBits here.
  const int octave = msb - kSubBucketBits + 1;
  const int shift = octave - 1;
  const int sub = static_cast<int>((value >> shift) & (kSubBuckets - 1));
  return octave * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketUpper(int index) {
  PAD_CHECK(index >= 0 && index < kNumBuckets);
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (octave == 0) {
    return static_cast<uint64_t>(sub);
  }
  const int shift = octave - 1;
  const uint64_t base = 1ull << (kSubBucketBits + octave - 1);
  return base + ((static_cast<uint64_t>(sub) + 1) << shift) - 1;
}

void LatencyHistogram::Record(uint64_t value) {
  counts_[static_cast<size_t>(BucketIndex(value))].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::min() const {
  const uint64_t value = min_.load(std::memory_order_relaxed);
  return value == ~0ull ? 0 : value;
}

uint64_t LatencyHistogram::ValueAtQuantile(double q) const {
  const uint64_t total = count();
  if (total == 0) {
    return 0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) {
    rank = 1;
  }
  if (rank > total) {
    rank = total;
  }
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += counts_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      return BucketUpper(i);
    }
  }
  return max();  // Unreachable when counts are consistent.
}

}  // namespace pad
