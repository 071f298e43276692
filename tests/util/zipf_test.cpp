#include "util/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ixp::util {
namespace {

TEST(ZipfSampler, RejectsInvalidArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
}

TEST(ZipfSampler, SingleElementAlwaysRankZero) {
  ZipfSampler zipf{1, 1.2};
  Rng rng{1};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler zipf{1000, 0.9};
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(zipf.pmf(zipf.size()), 0.0);
}

TEST(ZipfSampler, HeadDominatesForLargeExponent) {
  ZipfSampler zipf{10000, 1.2};
  Rng rng{2};
  int head = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) head += (zipf.sample(rng) < 10) ? 1 : 0;
  // With s = 1.2 the top-10 ranks carry a large share of the mass.
  EXPECT_GT(static_cast<double>(head) / kDraws, 0.45);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  ZipfSampler zipf{100, 0.0};
  for (std::size_t k = 0; k < 100; ++k) EXPECT_NEAR(zipf.pmf(k), 0.01, 1e-9);
}

class ZipfFrequencyTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfFrequencyTest, EmpiricalMatchesPmf) {
  const double s = GetParam();
  ZipfSampler zipf{500, s};
  Rng rng{3};
  std::vector<int> counts(zipf.size(), 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  // Check the head ranks where counts are large enough for tight bounds.
  for (std::size_t k = 0; k < 5; ++k) {
    const double expected = zipf.pmf(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, 6.0 * std::sqrt(expected) + 1.0)
        << "rank " << k << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfFrequencyTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.3, 2.0));

TEST(WeightedSampler, RejectsEmptyAndNegative) {
  EXPECT_THROW(WeightedSampler(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(WeightedSampler(std::vector<double>{1.0, -2.0}),
               std::invalid_argument);
}

TEST(WeightedSampler, NeverDrawsZeroWeight) {
  const std::vector<double> weights{0.0, 5.0, 0.0, 5.0};
  WeightedSampler sampler{weights};
  Rng rng{4};
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = sampler.sample(rng);
    EXPECT_TRUE(k == 1 || k == 3);
  }
}

TEST(WeightedSampler, AllZeroWeightsFallsBackToUniform) {
  const std::vector<double> weights{0.0, 0.0, 0.0};
  WeightedSampler sampler{weights};
  Rng rng{5};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[sampler.sample(rng)];
  for (const int c : counts) EXPECT_GT(c, 8000);
}

TEST(WeightedSampler, FrequenciesMatchWeights) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  WeightedSampler sampler{weights};
  Rng rng{6};
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.sample(rng)];
  for (std::size_t k = 0; k < 4; ++k) {
    const double expected = weights[k] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws, expected, 0.01);
  }
}

TEST(WeightedSampler, SingleEntry) {
  WeightedSampler sampler{std::vector<double>{3.5}};
  Rng rng{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

/// Reference alias table kept as two parallel arrays, built with the same
/// arithmetic as WeightedSampler. The sampler packs each slot's
/// probability and alias together; its draws must not change.
class TwoArrayAlias {
 public:
  explicit TwoArrayAlias(const std::vector<double>& weights)
      : prob_(weights.size(), 1.0), alias_(weights.size(), 0) {
    const std::size_t n = weights.size();
    double total = 0.0;
    for (const double w : weights) total += w;
    if (total <= 0.0) {
      for (std::size_t i = 0; i < n; ++i) alias_[i] = static_cast<std::uint32_t>(i);
      return;
    }
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i)
      scaled[i] = weights[i] * static_cast<double>(n) / total;
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n; ++i)
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (const std::uint32_t i : large) {
      prob_[i] = 1.0;
      alias_[i] = i;
    }
    for (const std::uint32_t i : small) {
      prob_[i] = 1.0;
      alias_[i] = i;
    }
  }

  std::size_t sample(Rng& rng) const {
    const auto i = static_cast<std::size_t>(rng.next_below(prob_.size()));
    return rng.next_double() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

TEST(WeightedSampler, DrawsMatchTwoArrayReference) {
  Rng gen{20130827};
  std::vector<std::vector<double>> cases = {
      {0.0}, {2.5}, {0.0, 0.0, 0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0, 0.0, 3.0}};
  for (int c = 0; c < 200; ++c) {
    std::vector<double> weights(1 + gen.next_below(300));
    for (double& w : weights) {
      // A mix of zero, tiny, ordinary and dominant weights.
      switch (gen.next_below(4)) {
        case 0: w = 0.0; break;
        case 1: w = gen.next_double() * 1e-9; break;
        case 2: w = gen.next_double(); break;
        default: w = gen.next_double() * 1e6; break;
      }
    }
    cases.push_back(std::move(weights));
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const WeightedSampler sampler{cases[c]};
    const TwoArrayAlias reference{cases[c]};
    Rng a{c};
    Rng b{c};
    for (int d = 0; d < 2000; ++d)
      ASSERT_EQ(sampler.sample(a), reference.sample(b)) << "case " << c << " draw " << d;
    EXPECT_EQ(a(), b());  // both consumed the same draws
  }
}

TEST(ZipfWeights, ShapeAndNormalization) {
  const auto raw = zipf_weights(10, 1.0);
  EXPECT_DOUBLE_EQ(raw[0], 1.0);
  EXPECT_NEAR(raw[1], 0.5, 1e-12);
  EXPECT_NEAR(raw[9], 0.1, 1e-12);

  const auto norm = zipf_weights(10, 1.0, /*normalize=*/true);
  double total = 0.0;
  for (const double w : norm) total += w;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace ixp::util
