#include "classify/dissector.hpp"

#include "classify/lane_flags.hpp"

#include <algorithm>
#include <tuple>

#include "util/parallel_for.hpp"

namespace ixp::classify {

bool IpActivity::multi_purpose() const noexcept {
  int purposes = 0;
  if ((flags & (kSeenPort80 | kSeenPort8080)) != 0) ++purposes;
  if ((flags & kConfirmedHttps) != 0) ++purposes;
  if ((flags & kSeenRtmp1935) != 0 && (flags & kSeenHttpServer) != 0) ++purposes;
  return purposes >= 2;
}

std::size_t ActivityView::size() const noexcept {
  std::size_t n = 0;
  for (const ActivityTable& table : parts_) n += table.size();
  return n;
}

std::size_t ActivityView::capacity() const noexcept {
  std::size_t n = 0;
  for (const ActivityTable& table : parts_) n += table.capacity();
  return n;
}

TrafficDissector::TrafficDissector()
    : activity_(kPartitions), hosts_(kPartitions) {}

void TrafficDissector::note_host(HostTable& table, net::Ipv4Addr server,
                                 std::string_view host, std::uint64_t seq) {
  auto& hosts = table[server];
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
  ActivityTable* const tables = activity_.data();

  // Phase-split form (DESIGN.md §14), equivalent to applying the
  // per-sample evidence rule in index order because every per-IP update
  // is an OR or an add (both commute) and the host pass preserves sample
  // order:
  //   A. lane-wise evidence bytes out of the SoA port/transport/
  //      indication arrays (LaneFlags, SSE2 where available) — all of the
  //      sample's data-dependent branching, hoisted out of the loop
  //      that touches the tables;
  //   B. one branchless interleaved probe stream over the activity
  //      partitions, src and dst per sample, prefetched kLookahead ahead;
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
        tables[partition_of(src[ahead])].prefetch(src[ahead]);
        tables[partition_of(dst[ahead])].prefetch(dst[ahead]);
      }
      const std::size_t at = base + i;
      IpActivity& src_info = tables[partition_of(src[at])][src[at]];
      src_info.samples += 1;
      src_info.bytes += bytes[at];
      src_info.flags |= src_flags[i];
      IpActivity& dst_info = tables[partition_of(dst[at])][dst[at]];
      dst_info.samples += 1;
      dst_info.bytes += bytes[at];
      dst_info.flags |= dst_flags[i];
      total_bytes_ += bytes[at];
    }
    for (std::size_t i = base; i < base + m; ++i) {
      if (host[i].empty()) continue;
      const auto ind = static_cast<HttpIndication>(indication[i]);
      if (ind == HttpIndication::kRequest)
        note_host(hosts_[partition_of(dst[i])], dst[i], host[i], seq[i]);
      else if (ind == HttpIndication::kResponse)
        note_host(hosts_[partition_of(src[i])], src[i], host[i], seq[i]);
    }
  }
}

void TrafficDissector::confirm_https(net::Ipv4Addr addr) {
  activity_[partition_of(addr)][addr].flags |= kConfirmedHttps;
}

void TrafficDissector::merge(TrafficDissector&& other) {
  for (std::size_t p = 0; p < kPartitions; ++p) merge_partition(other, p);
  merge_tallies(other);
}

void TrafficDissector::merge_partition(TrafficDissector& other,
                                       std::size_t p) {
  ActivityTable& activity = activity_[p];
  HostTable& hosts = hosts_[p];
  ActivityTable& from = other.activity_[p];
  HostTable& from_hosts = other.hosts_[p];
  // An empty destination partition takes the other's whole; other is
  // left holding the empty one.
  if (activity.empty() && hosts.empty()) {
    std::swap(activity, from);
    std::swap(hosts, from_hosts);
    return;
  }
  // Otherwise fold in other's slot order, which is sorted by home slot:
  // the union bound up front keeps those runs from clustering (see
  // flat_hash_map.hpp).
  activity.reserve(activity.size() + from.size());
  hosts.reserve(hosts.size() + from_hosts.size());
  for (const auto& [addr, info] : from) {
    IpActivity& mine = activity[addr];
    mine.samples += info.samples;
    mine.bytes += info.bytes;
    mine.flags |= info.flags;
  }
  for (const auto& [addr, observed] : from_hosts) {
    for (const auto& seen : observed)
      note_host(hosts, addr, seen.name.view(), seen.first_seq);
  }
  // Release other's storage now rather than when its shard dies: a fold
  // then holds at most one copy of each partition.
  from = ActivityTable{};
  from_hosts = HostTable{};
}

void TrafficDissector::merge_tallies(TrafficDissector& other) {
  total_bytes_ += other.total_bytes_;
  other.total_bytes_ = 0;
}

std::vector<std::string> TrafficDissector::hosts_of(net::Ipv4Addr addr) const {
  const HostTable& table = hosts_[partition_of(addr)];
  const auto it = table.find(addr);
  if (it == table.end()) return {};
  std::vector<HostObservation> ordered = it->second;
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first_seq, a.name) < std::tie(b.first_seq, b.name);
  });
  std::vector<std::string> out;
  out.reserve(ordered.size());
  for (const auto& seen : ordered) out.push_back(seen.name.str());
  return out;
}

namespace {

/// The addresses of the entries `keep` selects, in global address order:
/// each partition's are gathered and sorted in place, and the partitions
/// follow in index order.
template <class Keep>
std::vector<net::Ipv4Addr> select_sorted(std::span<const ActivityTable> parts,
                                         Keep keep) {
  std::vector<net::Ipv4Addr> out;
  for (const ActivityTable& part : parts) {
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    for (const auto& [addr, info] : part)
      if (keep(info)) out.push_back(addr);
    std::sort(out.begin() + first, out.end());
  }
  return out;
}

}  // namespace

std::vector<net::Ipv4Addr> TrafficDissector::https_candidates() const {
  return select_sorted(activity_, [](const IpActivity& info) {
    return (info.flags & kCandidate443) != 0;
  });
}

std::vector<net::Ipv4Addr> TrafficDissector::web_servers() const {
  return select_sorted(activity_,
                       [](const IpActivity& info) { return info.web_server(); });
}

DissectionSummary TrafficDissector::summarize(unsigned threads) const {
  // Exact integer counts per partition, summed in partition order.
  struct Counts {
    std::size_t http = 0, candidates = 0, https = 0, web = 0, clients = 0,
                dual_role = 0, multi_purpose = 0;
    std::uint64_t dual_role_bytes = 0;
  };
  std::vector<Counts> per_part(kPartitions);
  util::parallel_for(kPartitions, threads, [&](std::size_t p) {
    Counts& c = per_part[p];
    for (const auto& [addr, info] : activity_[p]) {
      if (info.http_server()) ++c.http;
      if ((info.flags & kCandidate443) != 0) ++c.candidates;
      if (info.https_server()) ++c.https;
      if (info.web_server()) ++c.web;
      if (info.client()) ++c.clients;
      if (info.web_server() && info.client()) {
        ++c.dual_role;
        c.dual_role_bytes += info.bytes;
      }
      if (info.multi_purpose()) ++c.multi_purpose;
    }
  });
  DissectionSummary s;
  s.unique_ips = activity().size();
  s.total_bytes = static_cast<double>(total_bytes_);
  std::uint64_t dual_role_bytes = 0;
  for (const Counts& c : per_part) {
    s.http_server_ips += c.http;
    s.https_candidate_ips += c.candidates;
    s.https_server_ips += c.https;
    s.web_server_ips += c.web;
    s.client_ips += c.clients;
    s.dual_role_ips += c.dual_role;
    s.multi_purpose_ips += c.multi_purpose;
    dual_role_bytes += c.dual_role_bytes;
  }
  s.dual_role_server_bytes = static_cast<double>(dual_role_bytes);
  return s;
}

}  // namespace ixp::classify
