// Deterministic random number generation for ixpscope.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng instance; there is no global random state. This keeps all synthetic
// workloads and experiments exactly reproducible across runs and platforms
// (the generators are defined purely in terms of uint64 arithmetic).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ixp::util {

/// splitmix64 step: used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes a 64-bit value into a well-distributed hash (stateless splitmix64).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** generator. Fast, high-quality, 2^256-1 period.
///
/// Satisfies UniformRandomBitGenerator so it can be used with <random>
/// distributions, though the member helpers below are preferred because
/// their results are identical across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via splitmix64.
  explicit constexpr Rng(std::uint64_t seed = 0x1234abcd5678ef00ULL) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's method over 64 bits using 128-bit multiply.
    while (true) {
      const std::uint64_t x = (*this)();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound) return static_cast<std::uint64_t>(m >> 64);
      // Rejection zone: only entered when low < bound.
      const std::uint64_t threshold = (0ULL - bound) % bound;
      if (low >= threshold) return static_cast<std::uint64_t>(m >> 64);
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + next_below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool next_bool(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Binomial(n, p) variate. Exact for small n; uses a normal approximation
  /// with continuity correction when n*p and n*(1-p) are both large, which
  /// is the regime sFlow thinning operates in.
  [[nodiscard]] std::uint64_t next_binomial(std::uint64_t n, double p) noexcept;

  /// Poisson(lambda) variate (Knuth for small lambda, normal approx beyond).
  [[nodiscard]] std::uint64_t next_poisson(double lambda) noexcept;

  /// Standard normal variate (Box-Muller, one value per call).
  [[nodiscard]] double next_normal() noexcept;

  /// Pareto-distributed value with minimum xm > 0 and shape alpha > 0.
  /// Heavy-tailed; used for flow sizes and object popularity tails.
  [[nodiscard]] double next_pareto(double xm, double alpha) noexcept;

  /// Fisher-Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derives an independent child generator; `stream` selects the lane.
  /// Deterministic: same parent state + same stream => same child.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept {
    std::uint64_t s = state_[0] ^ mix64(stream + 0x6a09e667f3bcc909ULL);
    s ^= mix64(state_[3] + stream);
    return Rng{s};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Samples k distinct indices from [0, n) without replacement
/// (Floyd's algorithm). Requires k <= n. Result is unsorted.
[[nodiscard]] std::vector<std::uint64_t> sample_without_replacement(
    Rng& rng, std::uint64_t n, std::uint64_t k);

}  // namespace ixp::util
