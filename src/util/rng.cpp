#include "util/rng.hpp"

#include <cmath>
#include <unordered_set>

namespace ixp::util {

double Rng::next_normal() noexcept {
  // Box-Muller; discard the second value to keep the state trajectory simple.
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

std::uint64_t Rng::next_binomial(std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double np = static_cast<double>(n) * p;
  const double nq = static_cast<double>(n) * (1.0 - p);
  if (n <= 64 || np < 16.0 || nq < 16.0) {
    if (np < 16.0 && n > 256) {
      // Rare-event regime: Poisson approximation is cheap and accurate.
      const std::uint64_t v = next_poisson(np);
      return v > n ? n : v;
    }
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) count += next_bool(p) ? 1 : 0;
    return count;
  }
  // Normal approximation with continuity correction.
  const double sigma = std::sqrt(np * (1.0 - p));
  const double v = np + sigma * next_normal() + 0.5;
  if (v <= 0.0) return 0;
  if (v >= static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(v);
}

std::uint64_t Rng::next_poisson(double lambda) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda < 32.0) {
    const double limit = std::exp(-lambda);
    double product = next_double();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= next_double();
    }
    return count;
  }
  const double v = lambda + std::sqrt(lambda) * next_normal() + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

double Rng::next_pareto(double xm, double alpha) noexcept {
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return xm / std::pow(u, 1.0 / alpha);
}

std::vector<std::uint64_t> sample_without_replacement(Rng& rng, std::uint64_t n,
                                                      std::uint64_t k) {
  std::vector<std::uint64_t> result;
  if (k == 0 || n == 0) return result;
  if (k > n) k = n;
  result.reserve(k);
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(k * 2);
  // Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; if taken, use j.
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = rng.next_below(j + 1);
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  return result;
}

}  // namespace ixp::util
