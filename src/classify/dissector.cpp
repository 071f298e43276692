#include "classify/dissector.hpp"

#include "classify/lane_flags.hpp"

#include <algorithm>
#include <tuple>

namespace ixp::classify {

bool IpActivity::multi_purpose() const noexcept {
  int purposes = 0;
  if ((flags & (kSeenPort80 | kSeenPort8080)) != 0) ++purposes;
  if ((flags & kConfirmedHttps) != 0) ++purposes;
  if ((flags & kSeenRtmp1935) != 0 && (flags & kSeenHttpServer) != 0) ++purposes;
  return purposes >= 2;
}

TrafficDissector::TrafficDissector() {
  activity_.reserve(1 << 16);
}

void TrafficDissector::note_host(net::Ipv4Addr server, std::string_view host,
                                 std::uint64_t seq) {
  auto& hosts = hosts_[server];
  for (auto& seen : hosts) {
    if (seen.name == host) {
      seen.first_seq = std::min(seen.first_seq, seq);
      return;
    }
  }
  if (hosts.size() < kMaxHostsPerServer) {
    hosts.push_back({util::InlineString<kHostCapacity>{host}, seq});
    return;
  }
  // Keep the kMaxHostsPerServer smallest (first_seq, name) keys: evict the
  // largest when the newcomer precedes it.
  auto latest = std::max_element(
      hosts.begin(), hosts.end(), [](const auto& a, const auto& b) {
        return std::tie(a.first_seq, a.name) < std::tie(b.first_seq, b.name);
      });
  if (std::tuple{seq, host} < std::tuple{latest->first_seq, latest->name.view()}) {
    latest->name.assign(host);
    latest->first_seq = seq;
  }
}

void TrafficDissector::ingest(const FrameBatch& batch) {
  const std::size_t n = batch.size();
  const net::Ipv4Addr* src = batch.src();
  const net::Ipv4Addr* dst = batch.dst();
  const std::uint64_t* bytes = batch.bytes();
  const std::uint64_t* seq = batch.seq();
  const std::uint8_t* indication = batch.indication();
  const std::string_view* host = batch.host();

  // Phase-split form (DESIGN.md §14), equivalent to applying the
  // per-sample evidence rule in index order because every per-IP update
  // is an OR or an add (both commute) and the host pass preserves sample
  // order:
  //   A. lane-wise evidence bytes out of the SoA port/transport/
  //      indication arrays (LaneFlags, SSE2 where available) — all of the
  //      sample's data-dependent branching, hoisted out of the loop
  //      that touches the tables;
  //   B. one branchless interleaved probe stream over the activity
  //      table, src and dst per sample, prefetched kLookahead ahead;
  //   C. Host-header evidence in sample order (note_host's bounded-set
  //      eviction is order-sensitive, so this order is the contract).
  constexpr std::size_t kChunk = 512;
  constexpr std::size_t kLookahead = 8;
  std::uint8_t src_flags[kChunk];
  std::uint8_t dst_flags[kChunk];

  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    LaneFlags::compute(batch.src_port() + base, batch.dst_port() + base,
                       batch.tcp() + base, indication + base, m, src_flags,
                       dst_flags);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t ahead = base + i + kLookahead;
      if (ahead < n) {
        activity_.prefetch(src[ahead]);
        activity_.prefetch(dst[ahead]);
      }
      const std::size_t at = base + i;
      IpActivity& src_info = activity_[src[at]];
      src_info.samples += 1;
      src_info.bytes += bytes[at];
      src_info.flags |= src_flags[i];
      IpActivity& dst_info = activity_[dst[at]];
      dst_info.samples += 1;
      dst_info.bytes += bytes[at];
      dst_info.flags |= dst_flags[i];
      total_bytes_ += bytes[at];
    }
    for (std::size_t i = base; i < base + m; ++i) {
      if (host[i].empty()) continue;
      const auto ind = static_cast<HttpIndication>(indication[i]);
      if (ind == HttpIndication::kRequest)
        note_host(dst[i], host[i], seq[i]);
      else if (ind == HttpIndication::kResponse)
        note_host(src[i], host[i], seq[i]);
    }
  }
}

void TrafficDissector::confirm_https(net::Ipv4Addr addr) {
  activity_[addr].flags |= kConfirmedHttps;
}

void TrafficDissector::merge(TrafficDissector&& other) {
  // An empty destination (the session shard, a fresh fold) takes the
  // other's tables whole; other is left holding the empty ones.
  if (activity_.empty() && hosts_.empty() && total_bytes_ == 0) {
    std::swap(activity_, other.activity_);
    std::swap(hosts_, other.hosts_);
    std::swap(total_bytes_, other.total_bytes_);
    return;
  }
  // Otherwise fold in other's slot order, which is sorted by home slot:
  // the union bound up front keeps those runs from clustering (see
  // flat_hash_map.hpp).
  activity_.reserve(activity_.size() + other.activity_.size());
  hosts_.reserve(hosts_.size() + other.hosts_.size());
  for (const auto& [addr, info] : other.activity_) {
    IpActivity& mine = activity_[addr];
    mine.samples += info.samples;
    mine.bytes += info.bytes;
    mine.flags |= info.flags;
  }
  for (auto& [addr, hosts] : other.hosts_) {
    for (const auto& seen : hosts)
      note_host(addr, seen.name.view(), seen.first_seq);
  }
  total_bytes_ += other.total_bytes_;
  other.activity_.clear();
  other.hosts_.clear();
  other.total_bytes_ = 0;
}

std::vector<std::string> TrafficDissector::hosts_of(net::Ipv4Addr addr) const {
  const auto it = hosts_.find(addr);
  if (it == hosts_.end()) return {};
  std::vector<HostObservation> ordered = it->second;
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first_seq, a.name) < std::tie(b.first_seq, b.name);
  });
  std::vector<std::string> out;
  out.reserve(ordered.size());
  for (const auto& seen : ordered) out.push_back(seen.name.str());
  return out;
}

std::vector<net::Ipv4Addr> TrafficDissector::https_candidates() const {
  std::vector<net::Ipv4Addr> out;
  for (const auto& [addr, info] : activity_) {
    if ((info.flags & kCandidate443) != 0) out.push_back(addr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<net::Ipv4Addr> TrafficDissector::web_servers() const {
  std::vector<net::Ipv4Addr> out;
  for (const auto& [addr, info] : activity_) {
    if (info.web_server()) out.push_back(addr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

DissectionSummary TrafficDissector::summarize() const {
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
