#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pad {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Thread-compatible log-gamma. std::lgamma writes the process-global
// `signgam` on glibc — a data race when parallel sweeps draw Poisson counts
// concurrently (caught by TSan). lgamma_r is the reentrant form; it is not
// declared under strict -std=c++20, so declare it ourselves where available.
#if defined(__GLIBC__) || defined(__unix__) || defined(__APPLE__)
extern "C" double lgamma_r(double, int*);
inline double LogGamma(double x) {
  int sign;
  return lgamma_r(x, &sign);
}
#else
inline double LogGamma(double x) { return std::lgamma(x); }
#endif

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
}

Rng Rng::Fork() { return Rng(NextU64()); }

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 uniform mantissa bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  PAD_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PAD_CHECK(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t value = NextU64();
  while (value >= limit) {
    value = NextU64();
  }
  return lo + static_cast<int64_t>(value % range);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  // Box–Muller; u1 is kept away from zero to avoid log(0).
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double rate) {
  PAD_CHECK(rate > 0.0);
  double u = NextDouble();
  while (u <= 0.0) {
    u = NextDouble();
  }
  return -std::log(u) / rate;
}

int Rng::Poisson(double mean) {
  PAD_CHECK(mean >= 0.0);
  if (mean == 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    // Knuth inversion by product of uniforms.
    const double threshold = std::exp(-mean);
    int k = 0;
    double product = NextDouble();
    while (product > threshold) {
      ++k;
      product *= NextDouble();
    }
    return k;
  }
  // PTRS (Hörmann 1993): transformed rejection with squeeze, exact for large means.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    double u = NextDouble() - 0.5;
    const double v = NextDouble();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) {
      return static_cast<int>(k);
    }
    if (k < 0.0 || (us < 0.013 && v > us)) {
      continue;
    }
    const double log_mean = std::log(mean);
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * log_mean - mean - LogGamma(k + 1.0)) {
      return static_cast<int>(k);
    }
  }
}

int Rng::WeightedChoice(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    PAD_DCHECK(w >= 0.0);
    total += w;
  }
  PAD_CHECK_MSG(total > 0.0, "WeightedChoice requires a positive total weight");
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) {
      return static_cast<int>(i);
    }
  }
  // Floating-point slack: fall back to the last positive weight.
  for (int i = static_cast<int>(weights.size()) - 1; i >= 0; --i) {
    if (weights[i] > 0.0) {
      return i;
    }
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<int> Rng::Permutation(int n) {
  PAD_CHECK(n >= 0);
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    perm[static_cast<size_t>(i)] = i;
  }
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(UniformInt(0, i));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  return perm;
}

ZipfTable::ZipfTable(int n, double s) {
  PAD_CHECK(n > 0);
  PAD_CHECK(s >= 0.0);
  cdf_.resize(static_cast<size_t>(n));
  double cumulative = 0.0;
  for (int rank = 0; rank < n; ++rank) {
    cumulative += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_[static_cast<size_t>(rank)] = cumulative;
  }
  for (auto& value : cdf_) {
    value /= cumulative;
  }
}

int ZipfTable::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return static_cast<int>(cdf_.size()) - 1;
  }
  return static_cast<int>(it - cdf_.begin());
}

}  // namespace pad
