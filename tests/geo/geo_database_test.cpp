#include "geo/geo_database.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/routing_table.hpp"

namespace ixp::geo {
namespace {

using net::Ipv4Addr;
using net::Ipv4Prefix;

TEST(GeoDatabase, EmptyLookupsMiss) {
  GeoDatabase db;
  EXPECT_FALSE(db.country_of(Ipv4Addr{8, 8, 8, 8}).has_value());
  EXPECT_EQ(db.region_of(Ipv4Addr{8, 8, 8, 8}), Region::kRoW);
  EXPECT_EQ(db.prefix_count(), 0u);
}

TEST(GeoDatabase, AssignsAndLooksUp) {
  GeoDatabase db;
  db.assign(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, CountryCode{'D', 'E'});
  db.assign(Ipv4Prefix{Ipv4Addr{20, 0, 0, 0}, 8}, CountryCode{'U', 'S'});

  EXPECT_EQ(db.country_of(Ipv4Addr(10, 1, 2, 3)), (CountryCode{'D', 'E'}));
  EXPECT_EQ(db.country_of(Ipv4Addr(20, 1, 2, 3)), (CountryCode{'U', 'S'}));
  EXPECT_FALSE(db.country_of(Ipv4Addr(30, 1, 2, 3)).has_value());
  EXPECT_EQ(db.prefix_count(), 2u);
}

TEST(GeoDatabase, MoreSpecificPrefixWins) {
  GeoDatabase db;
  db.assign(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, CountryCode{'D', 'E'});
  db.assign(Ipv4Prefix{Ipv4Addr{10, 5, 0, 0}, 16}, CountryCode{'C', 'N'});
  EXPECT_EQ(db.country_of(Ipv4Addr(10, 5, 9, 9)), (CountryCode{'C', 'N'}));
  EXPECT_EQ(db.country_of(Ipv4Addr(10, 6, 9, 9)), (CountryCode{'D', 'E'}));
}

TEST(GeoDatabase, RegionBuckets) {
  GeoDatabase db;
  db.assign(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, CountryCode{'R', 'U'});
  db.assign(Ipv4Prefix{Ipv4Addr{20, 0, 0, 0}, 8}, CountryCode{'F', 'R'});
  EXPECT_EQ(db.region_of(Ipv4Addr(10, 0, 0, 1)), Region::kRU);
  EXPECT_EQ(db.region_of(Ipv4Addr(20, 0, 0, 1)), Region::kRoW);
}

// A routing table and a geo database over its prefix index, as the
// synthetic Internet builds them: one country per route index, the last
// assignment to a re-announced prefix winning.
struct SharedTables {
  net::RoutingTable routing;
  GeoDatabase geo;
  GeoDatabase assigned;  // the same prefixes filled by assign()

  SharedTables() {
    const struct {
      Ipv4Prefix prefix;
      net::Asn origin;
      CountryCode country;
    } fills[] = {
        {Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, net::Asn{1}, CountryCode{'D', 'E'}},
        {Ipv4Prefix{Ipv4Addr{10, 5, 0, 0}, 16}, net::Asn{2}, CountryCode{'C', 'N'}},
        {Ipv4Prefix{Ipv4Addr{10, 5, 7, 128}, 25}, net::Asn{3}, CountryCode{'U', 'S'}},
        {Ipv4Prefix{Ipv4Addr{10, 5, 0, 0}, 16}, net::Asn{4}, CountryCode{'R', 'U'}},
    };
    std::vector<CountryCode> by_route;
    for (const auto& fill : fills) {
      const std::size_t route = routing.announce(fill.prefix, fill.origin);
      if (route == by_route.size()) by_route.emplace_back();
      by_route[route] = fill.country;
      assigned.assign(fill.prefix, fill.country);
    }
    geo = GeoDatabase{routing, std::move(by_route)};
  }
};

const Ipv4Addr kProbes[] = {Ipv4Addr{10, 1, 2, 3},   Ipv4Addr{10, 5, 9, 9},
                            Ipv4Addr{10, 5, 7, 129}, Ipv4Addr{10, 5, 7, 1},
                            Ipv4Addr{11, 0, 0, 1},   Ipv4Addr{10, 255, 255, 255}};

/// Every probe answers in `geo` (scalar, batched, region) as in `want`,
/// and in `routing` with the origin `origins` lists.
void expect_answers(const net::RoutingTable& routing, const GeoDatabase& geo,
                    const GeoDatabase& want,
                    const std::vector<std::uint32_t>& origins) {
  const Ipv4Addr* end = kProbes + std::size(kProbes);
  std::vector<const CountryCode*> got(std::size(kProbes));
  std::vector<const net::Route*> routes(std::size(kProbes));
  geo.countries_of({kProbes, end}, got);
  routing.routes_of({kProbes, end}, routes);
  for (std::size_t i = 0; i < std::size(kProbes); ++i) {
    SCOPED_TRACE(kProbes[i].to_string());
    EXPECT_EQ(geo.country_of(kProbes[i]), want.country_of(kProbes[i]));
    EXPECT_EQ(got[i] ? std::optional{*got[i]} : std::nullopt,
              want.country_of(kProbes[i]));
    EXPECT_EQ(geo.region_of(kProbes[i]), want.region_of(kProbes[i]));
    const auto origin = routing.origin_of(kProbes[i]);
    EXPECT_EQ(origin ? origin->value() : 0u, origins[i]);
    EXPECT_EQ(routes[i] ? routes[i]->origin.value() : 0u, origins[i]);
  }
}

const std::vector<std::uint32_t> kOrigins = {1, 4, 3, 4, 0, 1};

TEST(SharedPrefixIndex, GeoOverRoutingAnswersLikeAssign) {
  const SharedTables t;
  EXPECT_TRUE(t.geo.lpm().shares_index_with(t.routing.lpm()));
  EXPECT_FALSE(t.assigned.lpm().shares_index_with(t.routing.lpm()));
  EXPECT_EQ(t.geo.prefix_count(), 3u);
  EXPECT_EQ(t.geo.country_of(Ipv4Addr{10, 5, 9, 9}), (CountryCode{'R', 'U'}));
  expect_answers(t.routing, t.geo, t.assigned, kOrigins);
  // Twice: the second pass answers from the result cache both share.
  expect_answers(t.routing, t.geo, t.assigned, kOrigins);
}

TEST(SharedPrefixIndex, InsertIntoASharedIndexIsRefused) {
  SharedTables t;
  expect_answers(t.routing, t.geo, t.assigned, kOrigins);
  const Ipv4Prefix fresh{Ipv4Addr{10, 5, 9, 0}, 24};
  const Ipv4Prefix known{Ipv4Addr{10, 0, 0, 0}, 8};
  EXPECT_THROW(t.routing.announce(fresh, net::Asn{9}), std::logic_error);
  EXPECT_THROW(t.routing.announce(known, net::Asn{9}), std::logic_error);
  EXPECT_THROW(t.routing.reserve(16), std::logic_error);
  EXPECT_THROW(t.geo.assign(fresh, CountryCode{'F', 'R'}), std::logic_error);
  EXPECT_THROW(t.geo.assign(known, CountryCode{'F', 'R'}), std::logic_error);
  EXPECT_EQ(t.routing.prefix_count(), 3u);
  EXPECT_EQ(t.geo.prefix_count(), 3u);
  expect_answers(t.routing, t.geo, t.assigned, kOrigins);

  // Once the geo table is gone the routing table owns its index again.
  t.geo = GeoDatabase{};
  EXPECT_EQ(t.routing.announce(fresh, net::Asn{9}), 3u);
  EXPECT_EQ(t.routing.origin_of(Ipv4Addr{10, 5, 9, 9})->value(), 9u);
}

TEST(SharedPrefixIndex, NeedsOneCountryPerRoute) {
  net::RoutingTable routing;
  routing.announce(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, net::Asn{1});
  EXPECT_THROW((GeoDatabase{routing, {}}), std::invalid_argument);
  EXPECT_THROW((GeoDatabase{routing, {CountryCode{'D', 'E'}, CountryCode{'U', 'S'}}}),
               std::invalid_argument);
  // A failed build shares nothing: the routing table stays writable.
  EXPECT_EQ(routing.announce(Ipv4Prefix{Ipv4Addr{11, 0, 0, 0}, 8}, net::Asn{2}),
            1u);
}

}  // namespace
}  // namespace ixp::geo
