// Heavy-tailed discrete samplers.
//
// The paper's workloads are dominated by rank-popularity effects (top sites,
// top server IPs, top organizations), so Zipf-like sampling is the backbone
// of the synthetic traffic model. ZipfSampler draws ranks from a bounded
// Zipf(s, n) distribution; WeightedSampler draws from arbitrary weights in
// O(1) via the alias method.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace ixp::util {

/// Bounded Zipf distribution over ranks [0, n): P(rank k) ~ 1/(k+1)^s.
/// Sampling is O(log n) via binary search over the precomputed CDF.
class ZipfSampler {
 public:
  /// Requires n >= 1 and s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  /// Draws a rank in [0, size()).
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::size_t rank) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k), cdf_.back() == 1.0
};

/// Alias-method sampler over arbitrary non-negative weights: O(n) build,
/// O(1) sample. Zero-weight entries are never drawn (unless all are zero,
/// in which case sampling is uniform). Each slot keeps its probability and
/// alias side by side, so a draw touches one cache line.
class WeightedSampler {
 public:
  explicit WeightedSampler(std::span<const double> weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept {
    const std::size_t i = static_cast<std::size_t>(rng.next_below(slots_.size()));
    const Slot& slot = slots_[i];
    return rng.next_double() < slot.prob ? i : slot.alias;
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    double prob = 1.0;
    std::uint32_t alias = 0;
  };
  std::vector<Slot> slots_;
};

/// Generates n Zipf(s)-shaped weights (1/(k+1)^s), optionally normalized.
[[nodiscard]] std::vector<double> zipf_weights(std::size_t n, double s,
                                               bool normalize = false);

}  // namespace ixp::util
