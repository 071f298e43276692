// Holds a built model's routing and geo tables to a serial rebuild from
// prefixes(): a RoutingTable filled by announce() and a standalone
// GeoDatabase filled by assign(), both in prefixes() order. Shared by the
// test-scale check under ThreadSanitizer (gen_concurrency_test) and the
// bench-scale check (gen_test), whose address allocation wraps and
// re-allocates prefixes, so the last assignment must win.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/internet.hpp"
#include "geo/geo_database.hpp"
#include "net/routing_table.hpp"
#include "util/flat_hash_map.hpp"
#include "util/rng.hpp"

namespace ixp::gen {

/// Prefixes of `m` whose (network, length) an earlier prefix already had.
inline std::size_t reallocated_prefixes(const InternetModel& m) {
  util::FlatHashMap<net::Ipv4Prefix, bool> seen;
  std::size_t again = 0;
  for (const PrefixRecord& p : m.prefixes())
    again += seen.try_emplace(p.prefix, true).second ? 0 : 1;
  return again;
}

/// Every prefix's first and last address and `random` uniform addresses
/// answer alike in the model's tables and in the serial rebuild: route,
/// route index and the country, region and batched country answers.
inline void expect_tables_equal_serial_rebuild(const InternetModel& m,
                                               std::size_t random) {
  net::RoutingTable routing;
  geo::GeoDatabase geo;
  for (const PrefixRecord& p : m.prefixes()) {
    routing.announce(p.prefix, m.ases()[p.as_index].asn);
    geo.assign(p.prefix, m.ases()[p.as_index].country);
  }
  ASSERT_EQ(m.routing().prefix_count(), routing.prefix_count());
  ASSERT_EQ(m.geo_db().prefix_count(), geo.prefix_count());

  const std::vector<net::Route> built = m.routing().routes();
  const std::vector<net::Route> serial = routing.routes();
  ASSERT_EQ(built.size(), serial.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(built[i].prefix, serial[i].prefix) << i;
    EXPECT_EQ(built[i].origin, serial[i].origin) << i;
  }

  std::vector<net::Ipv4Addr> addrs;
  addrs.reserve(2 * m.prefixes().size() + random);
  for (const PrefixRecord& p : m.prefixes()) {
    addrs.push_back(p.prefix.address_at(0));
    addrs.push_back(p.prefix.address_at(p.prefix.size() - 1));
  }
  util::Rng rng{m.config().seed};
  for (std::size_t i = 0; i < random; ++i)
    addrs.push_back(net::Ipv4Addr{static_cast<std::uint32_t>(rng())});

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 2 * m.prefixes().size(); ++i) {
    const net::Ipv4Addr addr = addrs[i];
    const net::Route* got = m.routing().route_ptr(addr);
    const net::Route* want = routing.route_ptr(addr);
    ASSERT_NE(got, nullptr) << addr.to_string();
    ASSERT_NE(want, nullptr) << addr.to_string();
    mismatches += got->prefix != want->prefix || got->origin != want->origin ||
                  m.routing().route_index(got) != routing.route_index(want);
  }
  EXPECT_EQ(mismatches, 0u) << "routes differ from the serial rebuild";

  std::vector<const geo::CountryCode*> got(addrs.size());
  std::vector<const geo::CountryCode*> want(addrs.size());
  m.geo_db().countries_of(addrs, got);
  geo.countries_of(addrs, want);
  mismatches = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const net::Ipv4Addr addr = addrs[i];
    const geo::CountryCode* scalar = m.geo_db().country_ptr(addr);
    const geo::CountryCode* oracle = geo.country_ptr(addr);
    const bool differs =
        (scalar == nullptr) != (oracle == nullptr) ||
        (scalar != nullptr && *scalar != *oracle) ||
        (got[i] == nullptr) != (want[i] == nullptr) ||
        (got[i] != nullptr && *got[i] != *want[i]) ||
        m.geo_db().region_of(addr) != geo.region_of(addr);
    if (differs && ++mismatches <= 5)
      ADD_FAILURE() << "geo answers differ at " << addr.to_string();
  }
  EXPECT_EQ(mismatches, 0u) << "geo answers differ from assign() order";
}

}  // namespace ixp::gen
