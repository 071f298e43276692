// Traffic attribution — the second pass over a week's sample stream.
//
// Once the discovery pass has identified the server IPs (and §5.1 has
// clustered them into organizations), this pass re-reads the stream and
// attributes every peering byte: to servers vs. non-servers (§2.2.2's
// ">70%"), to organizations, and — per IXP member link — to direct vs.
// indirect paths (Figure 7: how much of an org's traffic reaches a member
// over the org's own peering link vs. over other members' links).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "classify/peering_filter.hpp"
#include "net/ipv4.hpp"
#include "util/flat_hash_map.hpp"

namespace ixp::analysis {

/// Per-(org, member) link usage for Figure 7.
struct LinkUsage {
  double direct_bytes = 0.0;    // arrived over the org's own member port
  double indirect_bytes = 0.0;  // arrived over any other member's port

  [[nodiscard]] double total() const noexcept {
    return direct_bytes + indirect_bytes;
  }
  [[nodiscard]] double direct_fraction() const noexcept {
    const double t = total();
    return t > 0.0 ? direct_bytes / t : 0.0;
  }
};

class AttributionPass {
 public:
  /// Per-org link usage keyed by peer member ASN.
  using LinkMap = util::FlatHashMap<net::Asn, LinkUsage>;

  /// `server_org` maps every identified server IP to its organization id
  /// (from clustering); `org_home` maps org ids to their own member ASN
  /// where they have one. The pass re-indexes both into flat tables —
  /// the per-sample observe() path probes them for every peering sample.
  AttributionPass(const fabric::Ixp& ixp, int week,
                  std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org,
                  std::unordered_map<std::uint32_t, net::Asn> org_home);

  /// Ingests one raw sample (applies the peering filter internally).
  void observe(const sflow::FlowSample& sample);

  [[nodiscard]] double peering_bytes() const noexcept { return peering_bytes_; }
  /// Bytes of peering samples touching at least one server IP.
  [[nodiscard]] double server_bytes() const noexcept { return server_bytes_; }
  [[nodiscard]] double server_share() const noexcept {
    return peering_bytes_ > 0.0 ? server_bytes_ / peering_bytes_ : 0.0;
  }
  /// Bytes of peering samples whose two endpoints are both server IPs
  /// (machine-to-machine), a part of server_bytes(). The sums are exact:
  /// every sample adds an integer, and a week stays far below 2^53.
  [[nodiscard]] double server_to_server_bytes() const noexcept {
    return server_to_server_bytes_;
  }

  /// Total bytes attributed to each org.
  [[nodiscard]] const util::FlatHashMap<std::uint32_t, double>& org_bytes()
      const noexcept {
    return org_bytes_;
  }

  /// Link usage of `org` per peer member ASN.
  [[nodiscard]] const LinkMap* links_of(std::uint32_t org) const;

  /// Fraction of `org`'s traffic that did NOT use its own member link
  /// (the paper: 11.1% for Akamai).
  [[nodiscard]] double indirect_share(std::uint32_t org) const;

  /// Server-side bytes that entered through a given member port
  /// (used for the reseller case study).
  [[nodiscard]] const util::FlatHashMap<net::Asn, double>&
  ingress_server_bytes() const noexcept {
    return ingress_server_bytes_;
  }

  /// Distinct server IPs whose traffic entered through each member port.
  [[nodiscard]] std::size_t ingress_server_ips(net::Asn member) const;

 private:
  classify::PeeringFilter filter_;
  classify::FilterCounters counters_;
  util::FlatHashMap<net::Ipv4Addr, std::uint32_t> server_org_;
  util::FlatHashMap<std::uint32_t, net::Asn> org_home_;
  const fabric::Ixp* ixp_;

  double peering_bytes_ = 0.0;
  double server_bytes_ = 0.0;
  double server_to_server_bytes_ = 0.0;
  util::FlatHashMap<std::uint32_t, double> org_bytes_;
  util::FlatHashMap<std::uint32_t, LinkMap> links_;
  util::FlatHashMap<net::Asn, double> ingress_server_bytes_;
  util::FlatHashMap<net::Asn, std::unordered_set<std::uint32_t>>
      ingress_server_ips_;
};

}  // namespace ixp::analysis
