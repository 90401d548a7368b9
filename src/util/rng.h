// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in FlexMoE takes an explicit seed and owns its
// own Rng instance, so experiment runs are bit-for-bit reproducible and
// independent streams never interleave.

#ifndef FLEXMOE_UTIL_RNG_H_
#define FLEXMOE_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>

namespace flexmoe {

/// \brief xoshiro256** PRNG seeded via SplitMix64.
///
/// Fast, high-quality, and deterministic across platforms (unlike
/// std::mt19937 distributions, whose outputs vary by standard library).
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box–Muller (cached second variate).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Poisson variate (Knuth for small lambda, normal approx for large).
  int64_t Poisson(double lambda);

  /// Binomial(n, p) counts (BTPE-free: inversion for small n*p, normal
  /// approximation beyond; adequate for workload synthesis).
  int64_t Binomial(int64_t n, double p);

  /// Multinomial counts: distributes `n` trials over the `k` weights in
  /// `probs` (need not be normalized) into `counts` (size k). Uses the
  /// conditional-binomial method: O(k) per call, allocation-free.
  void MultinomialInto(int64_t n, const double* probs, int k, int64_t* counts);

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace flexmoe

#endif  // FLEXMOE_UTIL_RNG_H_
