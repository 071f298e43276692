#include "analysis/attribution.hpp"

namespace ixp::analysis {

AttributionPass::AttributionPass(
    const fabric::Ixp& ixp, int week,
    std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org,
    std::unordered_map<std::uint32_t, net::Asn> org_home)
    : filter_(ixp, week), ixp_(&ixp) {
  server_org_.reserve(server_org.size());
  for (const auto& [addr, org] : server_org) server_org_.try_emplace(addr, org);
  org_home_.reserve(org_home.size());
  for (const auto& [org, home] : org_home) org_home_.try_emplace(org, home);
}

void AttributionPass::observe(const sflow::FlowSample& sample) {
  const auto peering = filter_.filter(sample, counters_);
  if (!peering) return;
  peering_bytes_ += peering->expanded_bytes;

  const sflow::ParsedFrame& frame = peering->frame;
  const auto src_it = server_org_.find(frame.ip->src);
  const auto dst_it = server_org_.find(frame.ip->dst);
  const bool src_server = src_it != server_org_.end();
  const bool dst_server = dst_it != server_org_.end();
  if (!src_server && !dst_server) return;
  server_bytes_ += peering->expanded_bytes;
  if (src_server && dst_server)
    server_to_server_bytes_ += peering->expanded_bytes;

  // Attribute to the server side(s). When both endpoints are servers
  // (machine-to-machine), the source — the responding side — wins.
  const std::uint32_t org = src_server ? src_it->second : dst_it->second;
  org_bytes_[org] += peering->expanded_bytes;

  const sflow::MacAddr server_mac = src_server ? frame.eth.src : frame.eth.dst;
  const sflow::MacAddr other_mac = src_server ? frame.eth.dst : frame.eth.src;
  const fabric::Member* server_member = ixp_->member_by_mac(server_mac);
  const fabric::Member* other_member = ixp_->member_by_mac(other_mac);
  if (server_member == nullptr || other_member == nullptr) return;

  // Ingress accounting (reseller case study).
  ingress_server_bytes_[server_member->asn] += peering->expanded_bytes;
  const net::Ipv4Addr server_addr = src_server ? frame.ip->src : frame.ip->dst;
  ingress_server_ips_[server_member->asn].insert(server_addr.value());

  const auto home_it = org_home_.find(org);
  const bool direct =
      home_it != org_home_.end() && server_member->asn == home_it->second;
  LinkUsage& usage = links_[org][other_member->asn];
  (direct ? usage.direct_bytes : usage.indirect_bytes) +=
      peering->expanded_bytes;
}

const AttributionPass::LinkMap* AttributionPass::links_of(
    std::uint32_t org) const {
  const auto it = links_.find(org);
  return it == links_.end() ? nullptr : &it->second;
}

double AttributionPass::indirect_share(std::uint32_t org) const {
  const auto* links = links_of(org);
  if (links == nullptr) return 0.0;
  double direct = 0.0;
  double indirect = 0.0;
  for (const auto& [member, usage] : *links) {
    direct += usage.direct_bytes;
    indirect += usage.indirect_bytes;
  }
  const double total = direct + indirect;
  return total > 0.0 ? indirect / total : 0.0;
}

std::size_t AttributionPass::ingress_server_ips(net::Asn member) const {
  const auto it = ingress_server_ips_.find(member);
  return it == ingress_server_ips_.end() ? 0 : it->second.size();
}

}  // namespace ixp::analysis
