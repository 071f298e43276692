#include "support/dissector_oracle.hpp"

#include <algorithm>
#include <tuple>

#include "classify/http_matcher.hpp"

namespace ixp::classify {

void DissectorOracle::note_host(net::Ipv4Addr server, std::string_view host,
                                std::uint64_t seq) {
  auto& hosts = hosts_[server];
  for (auto& seen : hosts) {
    if (seen.name == host) {
      seen.first_seq = std::min(seen.first_seq, seq);
      return;
    }
  }
  if (hosts.size() < kMaxHostsPerServer) {
    hosts.push_back({std::string{host}, seq});
    return;
  }
  // Keep the kMaxHostsPerServer smallest (first_seq, name) keys: evict the
  // largest when the newcomer precedes it.
  auto latest = std::max_element(
      hosts.begin(), hosts.end(), [](const auto& a, const auto& b) {
        return std::tie(a.first_seq, a.name) < std::tie(b.first_seq, b.name);
      });
  if (std::tuple{seq, host} <
      std::tuple{latest->first_seq, std::string_view{latest->name}}) {
    latest->name.assign(host);
    latest->first_seq = seq;
  }
}

void DissectorOracle::ingest(const PeeringSample& sample) {
  const sflow::ParsedFrame& frame = sample.frame;
  const net::Ipv4Addr src = frame.ip->src;
  const net::Ipv4Addr dst = frame.ip->dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  bool tcp = false;
  if (frame.is_tcp()) {
    src_port = frame.tcp->src_port;
    dst_port = frame.tcp->dst_port;
    tcp = true;
  } else if (frame.is_udp()) {
    src_port = frame.udp->src_port;
    dst_port = frame.udp->dst_port;
  }
  HttpMatch match;
  if (tcp && !frame.payload.empty()) match = HttpMatcher::match(frame.payload);
  const std::string_view host = match.host;

  // std::map references stay valid across inserts.
  IpActivity& src_info = activity_[src];
  IpActivity& dst_info = activity_[dst];
  src_info.samples += 1;
  dst_info.samples += 1;
  src_info.bytes += sample.expanded_bytes;
  dst_info.bytes += sample.expanded_bytes;
  total_bytes_ += sample.expanded_bytes;

  // Port-based candidate evidence (HTTPS cannot be string-matched).
  if (tcp) {
    if (src_port == 443) src_info.flags |= kCandidate443;
    if (dst_port == 443) dst_info.flags |= kCandidate443;
    if (src_port == 1935) src_info.flags |= kSeenRtmp1935;
    if (dst_port == 1935) dst_info.flags |= kSeenRtmp1935;
  }

  switch (match.indication) {
    case HttpIndication::kNone:
      return;
    case HttpIndication::kRequest: {
      dst_info.flags |= kSeenHttpServer;
      if (dst_port == 8080)
        dst_info.flags |= kSeenPort8080;
      else
        dst_info.flags |= kSeenPort80;
      src_info.flags |= kSeenHttpClient;
      if (!host.empty()) note_host(dst, host, sample.seq);
      return;
    }
    case HttpIndication::kResponse: {
      src_info.flags |= kSeenHttpServer;
      if (src_port == 8080)
        src_info.flags |= kSeenPort8080;
      else
        src_info.flags |= kSeenPort80;
      dst_info.flags |= kSeenHttpClient;
      if (!host.empty()) note_host(src, host, sample.seq);
      return;
    }
    case HttpIndication::kHeaderOnly: {
      // Direction unknown; fall back to the conventional server ports.
      const bool src_serverish =
          src_port == 80 || src_port == 8080 || src_port == 443;
      const bool dst_serverish =
          dst_port == 80 || dst_port == 8080 || dst_port == 443;
      if (src_serverish && !dst_serverish) {
        src_info.flags |= kSeenHttpServer | (src_port == 8080 ? kSeenPort8080
                                                              : kSeenPort80);
        dst_info.flags |= kSeenHttpClient;
      } else if (dst_serverish && !src_serverish) {
        dst_info.flags |= kSeenHttpServer | (dst_port == 8080 ? kSeenPort8080
                                                              : kSeenPort80);
        src_info.flags |= kSeenHttpClient;
      }
      return;
    }
  }
}

std::vector<std::string> DissectorOracle::hosts_of(net::Ipv4Addr addr) const {
  const auto it = hosts_.find(addr);
  if (it == hosts_.end()) return {};
  std::vector<HostObservation> ordered = it->second;
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first_seq, a.name) < std::tie(b.first_seq, b.name);
  });
  std::vector<std::string> out;
  out.reserve(ordered.size());
  for (const auto& seen : ordered) out.push_back(seen.name);
  return out;
}

DissectionSummary DissectorOracle::summarize() const {
  DissectionSummary s;
  s.unique_ips = activity_.size();
  s.total_bytes = static_cast<double>(total_bytes_);
  std::uint64_t dual_role_bytes = 0;
  for (const auto& [addr, info] : activity_) {
    if (info.http_server()) ++s.http_server_ips;
    if ((info.flags & kCandidate443) != 0) ++s.https_candidate_ips;
    if (info.https_server()) ++s.https_server_ips;
    if (info.web_server()) ++s.web_server_ips;
    if (info.client()) ++s.client_ips;
    if (info.web_server() && info.client()) {
      ++s.dual_role_ips;
      dual_role_bytes += info.bytes;
    }
    if (info.multi_purpose()) ++s.multi_purpose_ips;
  }
  s.dual_role_server_bytes = static_cast<double>(dual_role_bytes);
  return s;
}

}  // namespace ixp::classify
