#pragma once
// Deterministic random number generation.
//
// The evaluation harnesses must regenerate the paper's figures bit-for-bit
// across runs and platforms, so we implement the generator (xoshiro256**)
// and every distribution ourselves rather than relying on libstdc++'s
// unspecified distribution algorithms.

#include <cstdint>
#include <vector>

namespace rt {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded through splitmix64.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return next(); }

  /// Defined inline: next()/uniform() dominate the batched Monte-Carlo
  /// engine's per-draw cost, and an out-of-line definition costs a call
  /// per 64-bit word across translation units.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi], inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached second variate).
  double normal();
  double normal(double mean, double stddev);
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate);
  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Spawn an independent stream (distinct seed derived from this state).
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// UUniFast (Bini & Buttazzo): n utilizations summing to u_total,
/// uniformly distributed over the simplex.
std::vector<double> uunifast(Rng& rng, int n, double u_total);

/// Deterministic per-index seed derivation: one splitmix64 draw from the
/// state `base + index * golden-gamma`. This is THE derivation shared by
/// every layer that needs a family of independent seeds from one base
/// (exp::scenario_seed, the spec layer's grid expansion): deriving the same
/// (base, index) pair anywhere yields the same seed, and nothing is drawn
/// from shared RNG state.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

}  // namespace rt
