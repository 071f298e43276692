#include "core/vantage_point.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "probe/metadata_pass.hpp"
#include "probe/sweeps.hpp"
#include "util/parallel_for.hpp"

namespace ixp::core {

namespace {

/// What the aggregation reads of one peering IP, extracted in one
/// sequential pass over its activity partition. Trivially constructible,
/// so the row arrays are allocated without a serial zeroing pass and
/// first touched by the partition that fills them.
struct IpRow {
  std::uint32_t addr;
  std::uint8_t flags;
  std::uint64_t bytes;
};

/// Sorts one partition's rows by address. They share their top
/// kPartitionBits bits, so an LSD radix sort over the low bits alone,
/// two counting-scatter passes through a scratch copy and back, orders
/// them: linear in the row count, where a comparison sort spends
/// ~n log n.
void sort_partition(std::span<IpRow> rows) {
  if (rows.size() < 2) return;
  constexpr unsigned kDigitBits = (32 - classify::kPartitionBits + 1) / 2;
  constexpr std::uint32_t kMask = (std::uint32_t{1} << kDigitBits) - 1;
  const auto scratch = std::make_unique_for_overwrite<IpRow[]>(rows.size());
  std::span<IpRow> from = rows;
  std::span<IpRow> to{scratch.get(), rows.size()};
  for (const unsigned shift : {0u, kDigitBits}) {
    std::size_t offset[kMask + 2] = {};
    for (const IpRow& row : from) ++offset[((row.addr >> shift) & kMask) + 1];
    for (std::size_t d = 1; d < kMask + 2; ++d) offset[d] += offset[d - 1];
    for (const IpRow& row : from) to[offset[(row.addr >> shift) & kMask]++] = row;
    std::swap(from, to);
  }
}

/// Exact integer tallies of a set of IPs. The report's byte fields are
/// doubles; they are converted from these sums once, at the end.
struct Sums {
  std::uint64_t ips = 0;
  std::uint64_t bytes = 0;
  std::uint64_t server_ips = 0;
  std::uint64_t server_bytes = 0;

  void add(std::uint64_t ip_bytes, bool server) noexcept {
    ips += 1;
    bytes += ip_bytes;
    if (!server) return;
    server_ips += 1;
    server_bytes += ip_bytes;
  }
  Sums& operator+=(const Sums& o) noexcept {
    ips += o.ips;
    bytes += o.bytes;
    server_ips += o.server_ips;
    server_bytes += o.server_bytes;
    return *this;
  }
};

/// Sums per key, iterated in first-seen order: the report's maps are
/// then filled in the order a per-IP pass inserts them, and code that
/// iterates them (ranking ties in exp_tab2) sees the same sequence.
template <class K>
class KeyedSums {
 public:
  Sums& operator[](K key) {
    const auto [it, fresh] =
        index_.try_emplace(key, static_cast<std::uint32_t>(entries_.size()));
    if (fresh) entries_.emplace_back(key, Sums{});
    return entries_[it->second].second;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

 private:
  util::FlatHashMap<K, std::uint32_t> index_;
  std::vector<std::pair<K, Sums>> entries_;
};

/// One route run's prefix, its origin's locality, and whether the run
/// held a web server.
struct PrefixSighting {
  net::Ipv4Prefix prefix;
  int locality = 0;
  bool served = false;

  friend auto operator<=>(const PrefixSighting&,
                          const PrefixSighting&) = default;
};

}  // namespace

WeekSession::WeekSession(VantagePoint& vp, int week)
    : vp_(&vp), week_(week), shard_(*vp.ixp_, week) {}

WeekShard WeekSession::make_shard() const {
  return WeekShard{*vp_->ixp_, week_};
}

WeeklyReport WeekSession::finish(const classify::ChainFetcher& fetch,
                                 unsigned threads) {
  return vp_->finish_week(std::move(shard_), fetch, threads);
}

VantagePoint::VantagePoint(
    const fabric::Ixp& ixp, const net::RoutingTable& routing,
    const geo::GeoDatabase& geo,
    const std::unordered_map<net::Asn, net::Locality>& locality,
    const dns::ZoneDatabase& dns, const dns::PublicSuffixList& psl,
    const x509::RootStore& roots, VantageOptions options)
    : ixp_(&ixp),
      routing_(&routing),
      geo_(&geo),
      locality_(&locality),
      dns_(&dns),
      psl_(&psl),
      roots_(&roots),
      options_(options) {}

WeeklyReport VantagePoint::finish_week(WeekShard&& shard,
                                       const classify::ChainFetcher& fetch,
                                       unsigned threads) {
  threads = std::max(1u, threads);
  classify::TrafficDissector& dissector = shard.dissector_;
  WeeklyReport report;
  report.week = shard.week();
  report.filters = shard.counters_;

  // ---- HTTPS probing -------------------------------------------------------
  // Candidates arrive sorted by address, so the funnel and the fetches
  // happen in canonical order no matter how the week was sharded. The
  // sweep runs the crawl through the probe engine (lossless model), whose
  // funnel and confirmed set are identical to the synchronous prober's.
  const std::vector<net::Ipv4Addr> candidates =
      dissector.https_candidates(threads);
  probe::HttpsSweep sweep{*roots_, *psl_, options_.fetches_per_ip};
  probe::HttpsSweepResult sweep_result =
      sweep.run_with_fetcher(candidates, fetch);
  report.https_funnel = sweep_result.funnel;
  const std::vector<net::Ipv4Addr>& confirmed = sweep_result.confirmed;
  std::unordered_map<net::Ipv4Addr, x509::CertificateChain> confirmed_chains;
  for (const net::Ipv4Addr addr : confirmed) {
    dissector.confirm_https(addr);
    auto chains = fetch(addr, 1);
    if (!chains.empty()) confirmed_chains.emplace(addr, std::move(chains.front()));
  }
  report.dissection = dissector.summarize(threads);

  // ---- visibility aggregation ---------------------------------------------
  const auto locality_index = [&](net::Asn asn) -> int {
    const auto it = locality_->find(asn);
    if (it == locality_->end()) return 2;  // unknown: global
    switch (it->second) {
      case net::Locality::kMember: return 0;
      case net::Locality::kNear: return 1;
      default: return 2;
    }
  };

  // Canonical iteration order: sorted by address. Hash-map iteration order
  // depends on insertion history, which differs between shard splits; the
  // sort (plus exact integer tallies) is what makes the report — including
  // its floating-point aggregates — bit-identical for any thread count.
  // Each partition extracts what the tallies read into its own range of
  // the row array (at the prefix sum of the partition sizes) and sorts
  // it; the ranges concatenate in address order, so the loop below never
  // probes the activity table. The addresses are then attributed in
  // fixed-size chunks, one batched LPM pass per table each (a pass has a
  // fixed cost that would dominate the small partitions of a small
  // week): the flat tables prefetch their own arrays a window ahead, and
  // the loop reads the results through pointers (no per-IP optional
  // copies).
  const classify::ActivityView activity = dissector.activity();
  std::vector<std::size_t> offset(classify::kPartitions + 1, 0);
  for (std::size_t p = 0; p < classify::kPartitions; ++p)
    offset[p + 1] = offset[p] + activity.partition(p).size();
  const std::size_t n = offset.back();
  const auto rows = std::make_unique_for_overwrite<IpRow[]>(n);
  std::vector<net::Ipv4Addr> addrs(n);
  util::parallel_for(classify::kPartitions, threads, [&](std::size_t p) {
    const std::span<IpRow> part{rows.get() + offset[p], offset[p + 1] - offset[p]};
    std::size_t i = 0;
    for (const auto& [addr, info] : activity.partition(p))
      part[i++] = {addr.value(), info.flags, info.bytes};
    sort_partition(part);
    for (i = 0; i < part.size(); ++i) addrs[offset[p] + i] = net::Ipv4Addr{part[i].addr};
  });
  const auto routes = std::make_unique_for_overwrite<const net::Route*[]>(n);
  const auto countries =
      std::make_unique_for_overwrite<const geo::CountryCode*[]>(n);
  constexpr std::size_t kLpmChunk = std::size_t{1} << 14;
  util::parallel_for((n + kLpmChunk - 1) / kLpmChunk, threads, [&](std::size_t c) {
    const std::size_t first = c * kLpmChunk;
    const std::size_t count = std::min(kLpmChunk, n - first);
    const std::span<const net::Ipv4Addr> chunk{addrs.data() + first, count};
    routing_->routes_of(chunk, {routes.get() + first, count});
    geo_->countries_of(chunk, {countries.get() + first, count});
  });

  // Sorted addresses come in runs sharing one route (and one country
  // range), so tallies are summed per run and folded into the per-key
  // tallies when the run ends. A route can recur in a later run when a
  // more-specific prefix interrupts it; the keyed sums and the prefix
  // sort-unique below absorb that.
  KeyedSums<net::Asn> as_sums;
  KeyedSums<geo::CountryCode> country_sums;
  Sums locality_sums[3];
  std::vector<PrefixSighting> prefixes;
  Sums route_run;
  Sums country_run;
  const auto end_route_run = [&](const net::Route* route) {
    if (route != nullptr) {
      const int li = locality_index(route->origin);
      locality_sums[li] += route_run;
      as_sums[route->origin] += route_run;
      prefixes.push_back({route->prefix, li, route_run.server_ips > 0});
    }
    route_run = Sums{};
  };
  const auto end_country_run = [&](const geo::CountryCode* country) {
    if (country != nullptr) country_sums[*country] += country_run;
    country_run = Sums{};
  };

  // Host headers per server, collected during aggregation and borrowed by
  // the metadata items below (parallel to report.servers).
  std::vector<std::vector<std::string>> server_hosts;

  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && routes[i] != routes[i - 1]) end_route_run(routes[i - 1]);
    if (i > 0 && countries[i] != countries[i - 1])
      end_country_run(countries[i - 1]);
    const IpRow& row = rows[i];
    const classify::IpActivity info{0, row.bytes, row.flags};
    const bool server = info.web_server();
    route_run.add(row.bytes, server);
    country_run.add(row.bytes, server);
    if (!server) continue;

    ServerObservation obs;
    obs.addr = net::Ipv4Addr{row.addr};
    obs.bytes = static_cast<double>(row.bytes);
    obs.http = info.http_server();
    obs.https = info.https_server();
    obs.rtmp = (info.flags & classify::kSeenRtmp1935) != 0;
    obs.also_client = info.client();
    if (routes[i]) obs.asn = routes[i]->origin;
    if (countries[i]) obs.country = *countries[i];

    server_hosts.push_back(dissector.hosts_of(obs.addr));
    report.servers.push_back(std::move(obs));
  }
  if (n > 0) {
    end_route_run(routes[n - 1]);
    end_country_run(countries[n - 1]);
  }
  report.peering_ips = n;
  report.server_ips = report.servers.size();

  // The report's doubles, converted once from the exact sums.
  for (const auto& [asn, sums] : as_sums) {
    report.by_as.try_emplace(
        asn, AsTally{sums.ips, static_cast<double>(sums.bytes), sums.server_ips,
                     static_cast<double>(sums.server_bytes)});
    const int li = locality_index(asn);
    ++report.peering_locality[li].ases;
    if (sums.server_ips == 0) continue;
    ++report.server_locality[li].ases;
    ++report.server_ases;
  }
  report.peering_ases = as_sums.size();
  for (const auto& [code, sums] : country_sums) {
    report.by_country.try_emplace(
        code, CountryTally{sums.ips, static_cast<double>(sums.bytes),
                           sums.server_ips,
                           static_cast<double>(sums.server_bytes)});
    if (sums.server_ips > 0) ++report.server_countries;
  }
  report.peering_countries = country_sums.size();
  for (int li = 0; li < 3; ++li) {
    report.peering_locality[li].ips = locality_sums[li].ips;
    report.peering_locality[li].bytes =
        static_cast<double>(locality_sums[li].bytes);
    report.server_locality[li].ips = locality_sums[li].server_ips;
    report.server_locality[li].bytes =
        static_cast<double>(locality_sums[li].server_bytes);
  }

  // Prefixes: sort-unique over every run's sighting (a distinct (prefix,
  // locality) keeps the last of its sightings, which sorts served ones
  // last), then each distinct one is counted once per tally.
  std::sort(prefixes.begin(), prefixes.end());
  std::size_t distinct = 0;
  for (const PrefixSighting& sighting : prefixes) {
    if (distinct == 0 || prefixes[distinct - 1].prefix != sighting.prefix ||
        prefixes[distinct - 1].locality != sighting.locality)
      ++distinct;
    prefixes[distinct - 1] = sighting;
  }
  for (std::size_t i = 0; i < distinct;) {
    const net::Ipv4Prefix prefix = prefixes[i].prefix;
    bool served = false;
    for (; i < distinct && prefixes[i].prefix == prefix; ++i) {
      const int li = prefixes[i].locality;
      ++report.peering_locality[li].prefixes;
      if (!prefixes[i].served) continue;
      ++report.server_locality[li].prefixes;
      served = true;
    }
    ++report.peering_prefixes;
    if (served) ++report.server_prefixes;
  }

  // ---- metadata harvest ----------------------------------------------------
  // One batched pass over all servers instead of a per-server harvester
  // loop: PTR/SOA lookups ride the probe engine with a shared resolver
  // cache. The pass is lossless here, so each server's metadata is exactly
  // what MetadataHarvester::harvest would have produced.
  std::vector<probe::MetadataItem> items;
  items.reserve(report.servers.size());
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    const net::Ipv4Addr addr = report.servers[i].addr;
    const auto chain_it = confirmed_chains.find(addr);
    items.push_back(probe::MetadataItem{
        addr, server_hosts[i],
        chain_it == confirmed_chains.end() ? nullptr : &chain_it->second});
  }
  probe::MetadataPass::Options pass_options;
  pass_options.threads = threads;
  probe::MetadataPass pass{*dns_, *psl_, pass_options};
  probe::MetadataPassResult harvested = pass.run(items);
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    ServerObservation& obs = report.servers[i];
    obs.metadata = std::move(harvested.metadata[i]);
    // §2.4 cleaning: a server whose metadata was entirely cleaned away
    // drops out of the §5 analyses (but still counts as a server IP).
    // (With no metadata at all, hostname is necessarily absent too, so
    // testing it matches the old direct reverse-lookup check.)
    if (!obs.metadata.has_any() &&
        (!server_hosts[i].empty() || obs.metadata.hostname))
      ++report.metadata_cleaned_out;
    report.metadata_coverage.add(obs.metadata);
  }

  return report;
}

}  // namespace ixp::core
