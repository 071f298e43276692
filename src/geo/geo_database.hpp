// Prefix -> country geolocation database (the GeoLite-Country stand-in).
//
// The paper geo-locates all 230M+ observed IPs with MaxMind's GeoLite
// Country database. Our database is generated alongside the synthetic
// Internet: each allocated prefix records the country it was assigned to,
// so lookups are a longest-prefix match.
//
// Backed by the same net::FlatLpm (DIR-24-8) as the routing table, so
// country attribution costs one or two array loads per address rather
// than a second trie walk per sample.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "geo/country.hpp"
#include "net/flat_lpm.hpp"
#include "net/ipv4.hpp"

namespace ixp::geo {

class GeoDatabase {
 public:
  /// Registers a prefix's country (overwrites on re-registration).
  void assign(net::Ipv4Prefix prefix, CountryCode country);

  /// Sizes the table for `expected` prefixes (FlatLpm::reserve).
  void reserve(std::size_t expected) { lpm_.reserve(expected); }

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

 private:
  net::FlatLpm<CountryCode> lpm_;
};

}  // namespace ixp::geo
