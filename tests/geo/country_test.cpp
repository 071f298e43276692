#include "geo/country.hpp"

#include <gtest/gtest.h>

#include <set>

namespace ixp::geo {
namespace {

TEST(CountryCode, DefaultIsInvalid) {
  const CountryCode code;
  EXPECT_FALSE(code.valid());
  EXPECT_EQ(code.to_string(), "--");
}

TEST(CountryCode, RoundTripsThroughString) {
  const auto code = CountryCode::parse("DE");
  ASSERT_TRUE(code);
  EXPECT_TRUE(code->valid());
  EXPECT_EQ(code->to_string(), "DE");
}

TEST(CountryCode, ParseRejectsMalformed) {
  EXPECT_FALSE(CountryCode::parse(""));
  EXPECT_FALSE(CountryCode::parse("D"));
  EXPECT_FALSE(CountryCode::parse("DEU"));
  EXPECT_FALSE(CountryCode::parse("de"));
  EXPECT_FALSE(CountryCode::parse("D1"));
}

TEST(CountryCode, Comparable) {
  EXPECT_EQ(CountryCode('D', 'E'), CountryCode('D', 'E'));
  EXPECT_NE(CountryCode('D', 'E'), CountryCode('U', 'S'));
}

TEST(RegionOf, PaperRegions) {
  EXPECT_EQ(region_of(CountryCode('D', 'E')), Region::kDE);
  EXPECT_EQ(region_of(CountryCode('U', 'S')), Region::kUS);
  EXPECT_EQ(region_of(CountryCode('R', 'U')), Region::kRU);
  EXPECT_EQ(region_of(CountryCode('C', 'N')), Region::kCN);
  EXPECT_EQ(region_of(CountryCode('F', 'R')), Region::kRoW);
  EXPECT_EQ(region_of(CountryCode{}), Region::kRoW);
}

TEST(RegionToString, Names) {
  EXPECT_STREQ(to_string(Region::kDE), "DE");
  EXPECT_STREQ(to_string(Region::kRoW), "RoW");
}

TEST(CountryRegistry, HasPaperCountryCount) {
  const auto& registry = CountryRegistry::instance();
  // The paper's IXP sees traffic from 242 countries (Table 1, week 45).
  EXPECT_EQ(registry.size(), 242u);
}

TEST(CountryRegistry, EntriesAreUniqueAndValid) {
  const auto& registry = CountryRegistry::instance();
  std::set<std::uint16_t> seen;
  for (const auto& entry : registry.entries()) {
    EXPECT_TRUE(entry.code.valid());
    EXPECT_GT(entry.weight, 0.0);
    EXPECT_TRUE(seen.insert(entry.code.packed()).second)
        << "duplicate country " << entry.code.to_string();
  }
}

TEST(CountryRegistry, IndexOfFindsKnownCountries) {
  const auto& registry = CountryRegistry::instance();
  const auto us = registry.index_of(CountryCode('U', 'S'));
  ASSERT_TRUE(us);
  EXPECT_EQ(registry.entries()[*us].code, CountryCode('U', 'S'));
  EXPECT_FALSE(registry.index_of(CountryCode{}).has_value());
}

TEST(CountryRegistry, HeavyHeadMatchesPaperRanking) {
  // The paper's Table 2 has US and DE as the top countries by IPs; the
  // registry weights must reproduce that head.
  const auto& registry = CountryRegistry::instance();
  const auto us = registry.index_of(CountryCode('U', 'S'));
  const auto de = registry.index_of(CountryCode('D', 'E'));
  ASSERT_TRUE(us && de);
  const double us_weight = registry.entries()[*us].weight;
  const double de_weight = registry.entries()[*de].weight;
  for (const auto& entry : registry.entries()) {
    if (entry.code != CountryCode('U', 'S')) {
      EXPECT_LT(entry.weight, us_weight + 1e-9);
    }
  }
  EXPECT_GT(de_weight, 0.3 * us_weight);
}

}  // namespace
}  // namespace ixp::geo
