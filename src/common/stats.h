// Statistical accumulators used by trace characterization, predictor
// evaluation, and every benchmark harness.
#ifndef ADPAD_SRC_COMMON_STATS_H_
#define ADPAD_SRC_COMMON_STATS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pad {

// Streaming mean via Welford's update. O(1) memory; does not support
// percentiles (use SampleSet for that).
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
};

// Stores all samples; supports exact percentiles.
class SampleSet {
 public:
  void Add(double x);
  void AddAll(std::span<const double> xs);

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  double sum() const;

  // Exact percentile with linear interpolation; p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  std::span<const double> samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Weighted mean helper for ratio metrics (e.g. population energy shares).
class WeightedMean {
 public:
  void Add(double value, double weight);
  double mean() const;
  double total_weight() const { return weight_; }

 private:
  double sum_ = 0.0;
  double weight_ = 0.0;
};

// Formats a double with the given precision (printf "%.*f").
std::string FormatDouble(double value, int precision = 2);

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_STATS_H_
