#include "util/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ixp::util {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument{"ZipfSampler: n must be >= 1"};
  if (s < 0.0) throw std::invalid_argument{"ZipfSampler: s must be >= 0"};
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const noexcept {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

WeightedSampler::WeightedSampler(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument{"WeightedSampler: empty weights"};
  slots_.assign(n, Slot{});

  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument{"WeightedSampler: negative weight"};
    total += w;
  }
  if (total <= 0.0) {
    // All-zero weights: degenerate to uniform.
    for (std::size_t i = 0; i < n; ++i) slots_[i].alias = static_cast<std::uint32_t>(i);
    return;
  }

  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    slots_[s] = {scaled[s], l};
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const std::uint32_t i : large) slots_[i] = {1.0, i};
  for (const std::uint32_t i : small) slots_[i] = {1.0, i};
}

std::vector<double> zipf_weights(std::size_t n, double s, bool normalize) {
  std::vector<double> w(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
    total += w[k];
  }
  if (normalize && total > 0.0) {
    for (auto& v : w) v /= total;
  }
  return w;
}

}  // namespace ixp::util
