// Small statistics helpers for the experiment harnesses (percentiles for
// rank plots, shares, Gini coefficients for concentration, online moments
// for streaming counters). Only the experiments use them, so they live
// beside exp_common rather than in the shipped util library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ixp::util {

/// Numerically stable online mean/variance/min/max accumulator (Welford).
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Returns the q-quantile (q in [0,1]) of `values` using linear
/// interpolation between order statistics. Sorts a copy; empty input -> 0.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Gini coefficient of non-negative values in [0,1]; 0 = perfectly even,
/// ->1 = maximally concentrated. Empty or all-zero input -> 0.
[[nodiscard]] double gini(std::span<const double> values);

/// Fraction of the total contributed by the top-k largest values.
/// k >= size() -> 1.0 (when total > 0); empty/zero-total input -> 0.
[[nodiscard]] double top_k_share(std::span<const double> values, std::size_t k);

/// Cumulative shares by descending value: result[i] = share of the i+1
/// largest values. Used for rank/share plots like the paper's Figure 2.
[[nodiscard]] std::vector<double> cumulative_share_by_rank(
    std::span<const double> values);

}  // namespace ixp::util
