// Prefix -> country geolocation database (the GeoLite-Country stand-in).
//
// The paper geo-locates all 230M+ observed IPs with MaxMind's GeoLite
// Country database. Our database is generated alongside the synthetic
// Internet: each allocated prefix records the country it was assigned to,
// so lookups are a longest-prefix match.
//
// Backed by the same net::FlatLpm (DIR-24-8) as the routing table, so
// country attribution costs one or two array loads per address rather
// than a second trie walk per sample. The model's database holds no
// index of its own: it is built over the routing table's, with one
// country per route index (DESIGN.md §11.1). A database filled by
// assign() keeps its own index and runs the same lookup code.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geo/country.hpp"
#include "net/flat_lpm.hpp"
#include "net/ipv4.hpp"
#include "net/routing_table.hpp"

namespace ixp::geo {

class GeoDatabase {
 public:
  GeoDatabase() = default;

  /// A database over `routing`'s prefix index: `by_route[i]` is the
  /// country of route index i. Both tables are read-only from here on.
  /// Throws std::invalid_argument unless there is one country per route.
  GeoDatabase(const net::RoutingTable& routing,
              std::vector<CountryCode> by_route)
      : lpm_(routing.lpm(), std::move(by_route)) {}

  /// Registers a prefix's country (overwrites on re-registration).
  /// Throws std::logic_error when the prefix index is shared.
  void assign(net::Ipv4Prefix prefix, CountryCode country);

  /// Country of the most specific covering prefix, or nullopt.
  [[nodiscard]] std::optional<CountryCode> country_of(net::Ipv4Addr addr) const;

  /// Pointer form for per-sample paths: no optional, no copy. Stable
  /// until the next assign.
  [[nodiscard]] const CountryCode* country_ptr(net::Ipv4Addr addr) const noexcept {
    return lpm_.lookup_ptr(addr);
  }

  /// Batched attribution: out[i] = country_ptr(addrs[i]), with the LPM
  /// arrays software-prefetched ahead. Requires out.size() >= addrs.size().
  void countries_of(std::span<const net::Ipv4Addr> addrs,
                    std::span<const CountryCode*> out) const noexcept {
    lpm_.lookup_batch(addrs, out);
  }

  /// Region bucket of an address (unknown locations land in RoW).
  [[nodiscard]] Region region_of(net::Ipv4Addr addr) const;

  [[nodiscard]] std::size_t prefix_count() const noexcept {
    return lpm_.size();
  }

  /// The underlying table (to check which prefix index it answers from).
  [[nodiscard]] const net::FlatLpm<CountryCode>& lpm() const noexcept {
    return lpm_;
  }

 private:
  net::FlatLpm<CountryCode> lpm_;
};

}  // namespace ixp::geo
