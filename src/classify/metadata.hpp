// Server meta-data harvesting (§2.4).
//
// For every identified server IP the pipeline gathers three kinds of
// meta-data: DNS information (PTR hostname and/or an iteratively resolved
// SOA authority), URIs recovered from the sampled payloads (Host headers),
// and names from validated X.509 certificates. The harvest is then cleaned
// ("removing non-valid URIs, SOA resource records of the RIRs such as
// ripe.net, etc."), which costs slightly under 3% of the server pool.
// probe::MetadataPass runs the harvest inside VantagePoint::finish_week;
// this header holds what it produces.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dns/name.hpp"
#include "dns/uri.hpp"
#include "net/ipv4.hpp"

namespace ixp::classify {

struct ServerMetadata {
  net::Ipv4Addr addr;
  std::optional<dns::DnsName> hostname;       // reverse DNS
  std::optional<dns::DnsName> soa_authority;  // from hostname or reverse SOA
  std::vector<dns::Uri> uris;                 // cleaned Host headers
  std::vector<dns::DnsName> cert_names;       // subject + SANs of valid cert

  [[nodiscard]] bool has_dns() const noexcept {
    return hostname.has_value() || soa_authority.has_value();
  }
  [[nodiscard]] bool has_uri() const noexcept { return !uris.empty(); }
  [[nodiscard]] bool has_cert() const noexcept { return !cert_names.empty(); }
  [[nodiscard]] bool has_any() const noexcept {
    return has_dns() || has_uri() || has_cert();
  }
};

/// §2.4's coverage statistics over the harvested pool.
struct MetadataCoverage {
  std::size_t servers = 0;
  std::size_t with_dns = 0;
  std::size_t with_uri = 0;
  std::size_t with_cert = 0;
  std::size_t with_any = 0;
  std::size_t cleaned_out = 0;  // servers whose metadata vanished in cleaning

  void add(const ServerMetadata& md) {
    ++servers;
    if (md.has_dns()) ++with_dns;
    if (md.has_uri()) ++with_uri;
    if (md.has_cert()) ++with_cert;
    if (md.has_any()) ++with_any;
  }
};

/// True for SOA authorities that carry no organizational signal (the
/// RIRs' zones); the harvest's cleaning drops them.
[[nodiscard]] bool is_rir_authority(const dns::DnsName& name);

}  // namespace ixp::classify
