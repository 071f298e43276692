#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace ixp::util {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double quantile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double gini(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  double cumulative = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cumulative += sorted[i];
    weighted += sorted[i] * static_cast<double>(i + 1);
  }
  if (cumulative <= 0.0) return 0.0;
  const double n = static_cast<double>(sorted.size());
  return (2.0 * weighted) / (n * cumulative) - (n + 1.0) / n;
}

double top_k_share(std::span<const double> values, std::size_t k) {
  if (values.empty() || k == 0) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double total = 0.0;
  for (const double v : sorted) total += v;
  if (total <= 0.0) return 0.0;
  double top = 0.0;
  for (std::size_t i = 0; i < std::min(k, sorted.size()); ++i) top += sorted[i];
  return top / total;
}

std::vector<double> cumulative_share_by_rank(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double total = 0.0;
  for (const double v : sorted) total += v;
  std::vector<double> shares(sorted.size(), 0.0);
  if (total <= 0.0) return shares;
  double running = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    running += sorted[i];
    shares[i] = running / total;
  }
  return shares;
}

}  // namespace ixp::util
