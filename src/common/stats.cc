#include "src/common/stats.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace pad {

void RunningStats::Add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double RunningStats::mean() const { return count_ > 0 ? mean_ : 0.0; }

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleSet::AddAll(std::span<const double> xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_valid_ = false;
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum() / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  EnsureSorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double SampleSet::max() const {
  EnsureSorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double SampleSet::sum() const {
  double total = 0.0;
  for (double x : samples_) {
    total += x;
  }
  return total;
}

double SampleSet::Percentile(double p) const {
  PAD_CHECK(p >= 0.0 && p <= 100.0);
  PAD_CHECK_MSG(!samples_.empty(), "Percentile of an empty SampleSet");
  EnsureSorted();
  if (sorted_.size() == 1) {
    return sorted_.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

void SampleSet::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

void WeightedMean::Add(double value, double weight) {
  PAD_DCHECK(weight >= 0.0);
  sum_ += value * weight;
  weight_ += weight;
}

double WeightedMean::mean() const { return weight_ > 0.0 ? sum_ / weight_ : 0.0; }

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

}  // namespace pad
