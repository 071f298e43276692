#include "net/routing_table.hpp"

namespace ixp::net {

std::size_t RoutingTable::announce(Ipv4Prefix prefix, Asn origin) {
  return lpm_.insert(prefix, Route{prefix, origin});
}

std::optional<Asn> RoutingTable::origin_of(Ipv4Addr addr) const {
  const Route* route = lpm_.lookup_ptr(addr);
  if (!route) return std::nullopt;
  return route->origin;
}

std::optional<Ipv4Prefix> RoutingTable::prefix_of(Ipv4Addr addr) const {
  const Route* route = lpm_.lookup_ptr(addr);
  if (!route) return std::nullopt;
  return route->prefix;
}

std::optional<Route> RoutingTable::route_of(Ipv4Addr addr) const {
  const Route* route = lpm_.lookup_ptr(addr);
  if (!route) return std::nullopt;
  return *route;
}

std::vector<Route> RoutingTable::routes() const {
  std::vector<Route> out;
  out.reserve(lpm_.size());
  lpm_.for_each(
      [&out](Ipv4Prefix, const Route& route) { out.push_back(route); });
  return out;
}

}  // namespace ixp::net
