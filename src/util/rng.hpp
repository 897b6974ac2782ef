// Deterministic pseudo-random number generation.
//
// All stochastic pieces of pdrflow (workload generators, SNR traces,
// synthetic frame payloads) draw from this xoshiro256** generator so that
// every experiment is reproducible from a single seed.
#pragma once

#include <cstdint>

namespace pdr {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
///
/// Satisfies the UniformRandomBitGenerator requirements, so it can be used
/// with <random> distributions, but the helpers below avoid libstdc++
/// distribution implementation dependence for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type max() { return ~0ull; }

  result_type operator()();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return uniform01() < p; }

 private:
  std::uint64_t s_[4];
};

}  // namespace pdr
