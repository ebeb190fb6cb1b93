// Deterministic pseudo-random number generation for the simulator.
//
// We ship our own generator (xoshiro256++) instead of std::mt19937 for two
// reasons: it is much faster for the simulator's hot paths, and — more
// importantly — its output is fully specified here, so traces and experiment
// results are bit-reproducible across standard libraries and platforms.
// std::*_distribution is avoided for the same reason: the standard does not
// pin down distribution algorithms, so the same seed would give different
// traces under libstdc++ vs libc++.
#ifndef ADPAD_SRC_COMMON_RNG_H_
#define ADPAD_SRC_COMMON_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

namespace pad {

// SplitMix64 (Steele, Lea & Flood 2014): each step adds this golden-ratio
// increment to the state and returns the state through Mix64, the finalizer.
// Rng seeding, per-job and per-market seed derivation, steal victim scans,
// fault and chaos decisions and Wi-Fi jitter all use these two, so a change
// here moves every digest.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

inline constexpr uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One SplitMix64 step: advances `state` and returns the next output.
inline constexpr uint64_t SplitMix64(uint64_t& state) {
  return Mix64(state += kSplitMix64Gamma);
}

// xoshiro256++ 1.0 by Blackman & Vigna (public domain reference
// implementation), seeded through SplitMix64 so that small consecutive seeds
// produce well-decorrelated streams.
class Rng {
 public:
  explicit Rng(uint64_t seed = kSplitMix64Gamma);

  // Derive an independent child stream; used to give each simulated user its
  // own generator so that changing one user's draws cannot perturb another's.
  Rng Fork();

  // Uniform random 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Standard normal via Box–Muller (no cached spare: keeps the state small
  // and the stream position independent of call interleaving).
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Lognormal with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma);

  // Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  // Poisson-distributed count with the given mean. Uses inversion for small
  // means and the PTRS transformed-rejection method for large ones.
  int Poisson(double mean);

  // Pick an index in [0, weights.size()) with probability proportional to
  // weights[i]. Requires at least one strictly positive weight.
  int WeightedChoice(std::span<const double> weights);

  // Fisher–Yates shuffle of indices [0, n).
  std::vector<int> Permutation(int n);

 private:
  uint64_t s_[4];
};

// Precomputed Zipf sampler: O(n) setup, O(log n) per draw.
class ZipfTable {
 public:
  ZipfTable(int n, double s);

  int Sample(Rng& rng) const;
  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_RNG_H_
