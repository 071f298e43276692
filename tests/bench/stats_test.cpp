#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ixp::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(Quantile, EmptyIsZero) {
  EXPECT_EQ(quantile(std::vector<double>{}, 0.5), 0.0);
}

TEST(Quantile, MedianAndExtremes) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> values{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.75), 7.5);
}

TEST(Quantile, ClampsOutOfRangeQ) {
  const std::vector<double> values{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(values, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 2.0), 2.0);
}

TEST(Gini, UniformIsZero) {
  const std::vector<double> values{3.0, 3.0, 3.0, 3.0};
  EXPECT_NEAR(gini(values), 0.0, 1e-12);
}

TEST(Gini, ExtremeConcentration) {
  std::vector<double> values(100, 0.0);
  values[0] = 100.0;
  EXPECT_GT(gini(values), 0.95);
}

TEST(Gini, DegenerateInputs) {
  EXPECT_EQ(gini(std::vector<double>{}), 0.0);
  EXPECT_EQ(gini(std::vector<double>{0.0, 0.0}), 0.0);
}

TEST(TopKShare, BasicShares) {
  const std::vector<double> values{50.0, 30.0, 15.0, 5.0};
  EXPECT_DOUBLE_EQ(top_k_share(values, 1), 0.5);
  EXPECT_DOUBLE_EQ(top_k_share(values, 2), 0.8);
  EXPECT_DOUBLE_EQ(top_k_share(values, 4), 1.0);
  EXPECT_DOUBLE_EQ(top_k_share(values, 100), 1.0);
}

TEST(TopKShare, DegenerateInputs) {
  EXPECT_EQ(top_k_share(std::vector<double>{}, 3), 0.0);
  EXPECT_EQ(top_k_share(std::vector<double>{1.0}, 0), 0.0);
  EXPECT_EQ(top_k_share(std::vector<double>{0.0, 0.0}, 1), 0.0);
}

TEST(CumulativeShareByRank, MonotoneAndEndsAtOne) {
  const std::vector<double> values{5.0, 1.0, 3.0, 1.0};
  const auto shares = cumulative_share_by_rank(values);
  ASSERT_EQ(shares.size(), 4u);
  EXPECT_DOUBLE_EQ(shares[0], 0.5);
  EXPECT_DOUBLE_EQ(shares[1], 0.8);
  for (std::size_t i = 1; i < shares.size(); ++i)
    EXPECT_GE(shares[i], shares[i - 1]);
  EXPECT_DOUBLE_EQ(shares.back(), 1.0);
}

TEST(CumulativeShareByRank, ZeroTotal) {
  const auto shares = cumulative_share_by_rank(std::vector<double>{0.0, 0.0});
  EXPECT_EQ(shares, (std::vector<double>{0.0, 0.0}));
}

}  // namespace
}  // namespace ixp::util
