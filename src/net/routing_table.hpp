// Global routing table: the set of actively routed prefixes and their
// origin ASes, as one would assemble from RouteViews/RIPE RIS dumps.
// The vantage-point analyses use it to map observed IPs to prefixes and
// ASes (Table 1, Table 3, Figure 4(c)).
//
// Lookups ride on net::FlatLpm (DIR-24-8): one or two array loads per
// address instead of a trie walk. Hot callers should use the pointer
// and batch forms; the optional-returning forms remain for convenience.
// Another table (the model's geo database) can be built over this
// table's prefix index; both are read-only from then on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/flat_lpm.hpp"
#include "net/ipv4.hpp"

namespace ixp::net {

/// One routed prefix with its origin AS.
struct Route {
  Ipv4Prefix prefix;
  Asn origin;
};

/// Longest-prefix-match table of routed prefixes -> origin ASN.
class RoutingTable {
 public:
  /// Announces a prefix and returns its route index. A re-announcement
  /// overwrites the origin and keeps the index (the synthetic Internet
  /// has no MOAS conflicts). Throws std::logic_error once another table
  /// shares the prefix index.
  std::size_t announce(Ipv4Prefix prefix, Asn origin);

  /// Sizes the table for `expected` announcements (FlatLpm::reserve).
  void reserve(std::size_t expected) { lpm_.reserve(expected); }

  /// Origin AS of the most specific prefix covering `addr`.
  [[nodiscard]] std::optional<Asn> origin_of(Ipv4Addr addr) const;

  /// The most specific routed prefix covering `addr`.
  [[nodiscard]] std::optional<Ipv4Prefix> prefix_of(Ipv4Addr addr) const;

  /// Both at once (single table probe) for hot analysis loops.
  [[nodiscard]] std::optional<Route> route_of(Ipv4Addr addr) const;

  /// Pointer forms for per-sample paths: no optional, no copy. Stable
  /// until the next announce.
  [[nodiscard]] const Route* route_ptr(Ipv4Addr addr) const noexcept {
    return lpm_.lookup_ptr(addr);
  }
  [[nodiscard]] const Asn* origin_ptr(Ipv4Addr addr) const noexcept {
    const Route* route = lpm_.lookup_ptr(addr);
    return route ? &route->origin : nullptr;
  }

  /// Batched attribution: out[i] = route_ptr(addrs[i]), with the LPM
  /// arrays software-prefetched ahead. Requires out.size() >= addrs.size().
  void routes_of(std::span<const Ipv4Addr> addrs,
                 std::span<const Route*> out) const noexcept {
    lpm_.lookup_batch(addrs, out);
  }

  [[nodiscard]] std::size_t prefix_count() const noexcept {
    return lpm_.size();
  }

  /// A dense index in [0, prefix_count()) for a route the lookups above
  /// returned: one per routed prefix, so per-prefix state fits an array.
  [[nodiscard]] std::size_t route_index(const Route* route) const noexcept {
    return lpm_.index_of(route);
  }

  /// All routes in lexicographic prefix order.
  [[nodiscard]] std::vector<Route> routes() const;

  /// The underlying table, for a table built over its prefix index.
  [[nodiscard]] const FlatLpm<Route>& lpm() const noexcept { return lpm_; }

 private:
  FlatLpm<Route> lpm_;
};

}  // namespace ixp::net
