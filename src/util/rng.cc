#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace flexmoe {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97f4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  FLEXMOE_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return v % n;
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

int64_t Rng::Poisson(double lambda) {
  FLEXMOE_CHECK(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-lambda);
    double p = 1.0;
    int64_t k = 0;
    do {
      ++k;
      p *= Uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction.
  const double v = Normal(lambda, std::sqrt(lambda));
  return std::max<int64_t>(0, static_cast<int64_t>(std::lround(v)));
}

int64_t Rng::Binomial(int64_t n, double p) {
  FLEXMOE_CHECK(n >= 0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double np = static_cast<double>(n) * p;
  if (n <= 64) {
    // Direct Bernoulli trials for tiny n.
    int64_t k = 0;
    for (int64_t i = 0; i < n; ++i) k += (Uniform() < p) ? 1 : 0;
    return k;
  }
  if (np < 15.0 || static_cast<double>(n) * (1 - p) < 15.0) {
    // Inversion via geometric skips (efficient when p small; mirror if
    // p > 0.5 to keep the skip probability small).
    const bool mirror = p > 0.5;
    const double q = mirror ? 1.0 - p : p;
    const double log1mq = std::log1p(-q);
    int64_t k = 0;
    double sum = 0.0;
    while (true) {
      double u;
      do {
        u = Uniform();
      } while (u <= 0.0);
      sum += std::floor(std::log(u) / log1mq) + 1.0;
      if (sum > static_cast<double>(n)) break;
      ++k;
    }
    return mirror ? n - k : k;
  }
  // Normal approximation in the bulk regime.
  const double mean = np;
  const double sd = std::sqrt(np * (1.0 - p));
  const int64_t v = static_cast<int64_t>(std::lround(Normal(mean, sd)));
  return std::clamp<int64_t>(v, 0, n);
}

void Rng::MultinomialInto(int64_t n, const double* probs, int k,
                          int64_t* counts) {
  double remaining_mass = 0.0;
  for (int i = 0; i < k; ++i) {
    FLEXMOE_CHECK(probs[i] >= 0.0);
    remaining_mass += probs[i];
  }
  std::fill(counts, counts + k, 0);
  int64_t remaining = n;
  for (int i = 0; i + 1 < k && remaining > 0; ++i) {
    if (remaining_mass <= 0.0) break;
    const double p = std::min(1.0, probs[i] / remaining_mass);
    const int64_t c = Binomial(remaining, p);
    counts[i] = c;
    remaining -= c;
    remaining_mass -= probs[i];
  }
  if (k > 0) counts[k - 1] += remaining;
}

}  // namespace flexmoe
