#include "core/vantage_point.hpp"

#include <algorithm>
#include <atomic>
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
  /// Adds `later`'s sums key by key in its first-seen order: keys new to
  /// this one follow its own, as if one pass had seen both in turn.
  void merge(const KeyedSums& later) {
    for (const auto& [key, sums] : later.entries_) (*this)[key] += sums;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

 private:
  util::FlatHashMap<K, std::uint32_t> index_;
  std::vector<std::pair<K, Sums>> entries_;
};

/// What the tally loop sums over one chunk of address partitions: the
/// locality tallies, the per-AS and per-country sums, and the distinct
/// routed prefixes (per locality) this chunk counted.
struct ChunkTally {
  Sums locality[3];
  KeyedSums<net::Asn> ases;
  KeyedSums<geo::CountryCode> countries;
  std::size_t prefixes[3] = {};
  std::size_t server_prefixes[3] = {};

  /// Marks a route run's prefix seen (and served, when the run held a web
  /// server) in its flag byte, shared by all chunks. Whichever run sets a
  /// flag first counts the prefix, so every prefix is counted once however
  /// its runs fall into chunks.
  void mark_prefix(std::uint8_t& marks, int li, bool served) {
    constexpr std::uint8_t kSeen = 1;
    constexpr std::uint8_t kServed = 2;
    const std::uint8_t want = served ? kSeen | kServed : kSeen;
    std::atomic_ref<std::uint8_t> flags{marks};
    if ((flags.load(std::memory_order_relaxed) & want) == want) return;
    const std::uint8_t before = flags.fetch_or(want, std::memory_order_relaxed);
    if ((before & kSeen) == 0) ++prefixes[li];
    if ((want & ~before & kServed) != 0) ++server_prefixes[li];
  }

  /// Folds in the chunk that follows this one in address order.
  void merge(const ChunkTally& later) {
    for (int li = 0; li < 3; ++li) {
      locality[li] += later.locality[li];
      prefixes[li] += later.prefixes[li];
      server_prefixes[li] += later.server_prefixes[li];
    }
    ases.merge(later.ases);
    countries.merge(later.countries);
  }
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

std::vector<std::size_t> finish_chunk_edges(std::span<const std::size_t> offset,
                                            std::size_t chunks) {
  const std::size_t parts = offset.size() - 1;
  const std::size_t n = offset.back();
  std::vector<std::size_t> edges(chunks + 1, parts);
  edges[0] = 0;
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t share = n * c / chunks;
    edges[c] = static_cast<std::size_t>(
        std::lower_bound(offset.begin(), offset.end() - 1, share) - offset.begin());
  }
  return edges;
}

WeeklyReport VantagePoint::finish_week(WeekShard&& shard,
                                       const classify::ChainFetcher& fetch,
                                       unsigned threads) {
  // One chunk at one thread; otherwise a few per thread, so a thread that
  // drew a light chunk claims another.
  constexpr std::size_t kChunksPerThread = 4;
  return finish_week_in_chunks(std::move(shard), fetch, threads,
                               threads <= 1 ? 1 : kChunksPerThread * threads);
}

WeeklyReport VantagePoint::finish_week_in_chunks(
    WeekShard&& shard, const classify::ChainFetcher& fetch, unsigned threads,
    std::size_t chunks) {
  threads = std::max(1u, threads);
  chunks = std::clamp<std::size_t>(chunks, 1, classify::kPartitions);
  classify::TrafficDissector& dissector = shard.dissector_;
  WeeklyReport report;
  report.week = shard.week();
  report.filters = shard.counters_;

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
  //
  // The week is cut into chunks: whole, contiguous address partitions
  // holding about equal shares of the peering IPs. Each chunk extracts
  // what the report reads of its partitions into its own range of the row
  // array (at the prefix sum of the partition sizes) and radix-sorts each
  // partition's range; the ranges concatenate in address order, so
  // nothing below probes the activity table again. A chunk owns its
  // partitions' entries in every per-IP table, so chunks confirm servers
  // at once, and the chunks' results concatenate in address order into
  // what one chunk over every partition would give.
  const classify::ActivityView activity = dissector.activity();
  std::vector<std::size_t> offset(classify::kPartitions + 1, 0);
  for (std::size_t p = 0; p < classify::kPartitions; ++p)
    offset[p + 1] = offset[p] + activity.partition(p).size();
  const std::size_t n = offset.back();
  const std::vector<std::size_t> edges = finish_chunk_edges(offset, chunks);
  const auto rows = std::make_unique_for_overwrite<IpRow[]>(n);
  const auto addrs = std::make_unique_for_overwrite<net::Ipv4Addr[]>(n);
  const auto routes = std::make_unique_for_overwrite<const net::Route*[]>(n);
  const auto countries =
      std::make_unique_for_overwrite<const geo::CountryCode*[]>(n);

  // ---- HTTPS probing and attribution, per chunk ----------------------------
  // A chunk's sorted rows list its HTTPS candidates in canonical order; a
  // sweep of its own (validator, domain cache) crawls them. Every
  // candidate is judged on its own fetches, so the summed funnels and the
  // concatenated confirmed sets are those of one sweep over all
  // candidates. The sweep runs the crawl through the probe engine
  // (lossless model), whose funnel and confirmed set are identical to the
  // synchronous prober's, and hands back each confirmed server's first
  // chain for the metadata harvest. The addresses are then attributed in
  // fixed-size batches, one batched LPM pass per table each (a pass has a
  // fixed cost that would dominate a partition of a small week): the flat
  // tables prefetch their own arrays a window ahead, and the tally loop
  // reads the results through pointers (no per-IP optional copies).
  constexpr std::size_t kLpmBatch = std::size_t{1} << 14;
  std::vector<probe::HttpsSweepResult> swept(chunks);
  std::vector<std::size_t> server_offset(chunks + 1, 0);
  util::parallel_for(chunks, threads, [&](std::size_t c) {
    const std::size_t first = offset[edges[c]];
    const std::size_t last = offset[edges[c + 1]];
    for (std::size_t p = edges[c]; p < edges[c + 1]; ++p) {
      IpRow* row = rows.get() + offset[p];
      for (const auto& [addr, info] : activity.partition(p))
        *row++ = {addr.value(), info.flags, info.bytes};
      sort_partition({rows.get() + offset[p], offset[p + 1] - offset[p]});
    }
    std::vector<net::Ipv4Addr> candidates;
    for (std::size_t i = first; i < last; ++i) {
      addrs[i] = net::Ipv4Addr{rows[i].addr};
      if ((rows[i].flags & classify::kCandidate443) != 0)
        candidates.push_back(addrs[i]);
    }
    probe::HttpsSweep sweep{*roots_, *psl_, options_.fetches_per_ip};
    swept[c] = sweep.run_with_fetcher(candidates, fetch);
    std::size_t i = first;
    for (const net::Ipv4Addr addr : swept[c].confirmed) {
      dissector.confirm_https(addr);
      while (addrs[i] != addr) ++i;
      rows[i].flags |= classify::kConfirmedHttps;
    }
    for (std::size_t at = first; at < last; at += kLpmBatch) {
      const std::size_t count = std::min(kLpmBatch, last - at);
      const std::span<const net::Ipv4Addr> batch{addrs.get() + at, count};
      routing_->routes_of(batch, {routes.get() + at, count});
      geo_->countries_of(batch, {countries.get() + at, count});
    }
    std::size_t servers = 0;
    for (i = first; i < last; ++i)
      servers += classify::IpActivity{0, 0, rows[i].flags}.web_server() ? 1 : 0;
    server_offset[c + 1] = servers;
  });
  for (const probe::HttpsSweepResult& chunk : swept)
    report.https_funnel += chunk.funnel;
  report.dissection = dissector.summarize(threads);
  for (std::size_t c = 0; c < chunks; ++c) server_offset[c + 1] += server_offset[c];

  // ---- visibility aggregation, per chunk ------------------------------------
  // Sorted addresses come in runs sharing one route (and one country
  // range), so tallies are summed per run and folded into the per-key
  // tallies when the run ends (or the chunk does). A route can recur in a
  // later run when a more-specific prefix interrupts it, and a run that
  // crosses a chunk edge ends once in each chunk; the keyed sums and the
  // exact integer sums absorb both, and each prefix is counted by the one
  // run that first marks it seen (or served) in a flag byte per routed
  // prefix. Each chunk writes its web servers, their Host headers and
  // their metadata items at its own range of the server arrays.
  const std::size_t server_count = server_offset.back();
  report.servers.resize(server_count);
  // Host headers per server, borrowed by the metadata items.
  std::vector<std::vector<std::string>> server_hosts(server_count);
  std::vector<probe::MetadataItem> items(server_count);
  std::vector<std::uint8_t> prefix_marks(routing_->prefix_count(), 0);
  std::vector<ChunkTally> tallies(chunks);
  util::parallel_for(chunks, threads, [&](std::size_t c) {
    ChunkTally& tally = tallies[c];
    Sums route_run;
    Sums country_run;
    const auto end_route_run = [&](const net::Route* route) {
      if (route != nullptr) {
        const int li = locality_index(route->origin);
        tally.locality[li] += route_run;
        tally.ases[route->origin] += route_run;
        tally.mark_prefix(prefix_marks[routing_->route_index(route)], li,
                          route_run.server_ips > 0);
      }
      route_run = Sums{};
    };
    const auto end_country_run = [&](const geo::CountryCode* country) {
      if (country != nullptr) tally.countries[*country] += country_run;
      country_run = Sums{};
    };

    // The chunk's confirmed servers, sorted like its rows, with the chain
    // each one's sweep fetched first.
    const probe::HttpsSweepResult& confirmed = swept[c];
    std::size_t next_confirmed = 0;
    std::size_t s = server_offset[c];
    const std::size_t first = offset[edges[c]];
    const std::size_t last = offset[edges[c + 1]];
    for (std::size_t i = first; i < last; ++i) {
      if (i > first && routes[i] != routes[i - 1]) end_route_run(routes[i - 1]);
      if (i > first && countries[i] != countries[i - 1])
        end_country_run(countries[i - 1]);
      const IpRow& row = rows[i];
      const classify::IpActivity info{0, row.bytes, row.flags};
      const bool server = info.web_server();
      route_run.add(row.bytes, server);
      country_run.add(row.bytes, server);
      if (!server) continue;

      ServerObservation& obs = report.servers[s];
      obs.addr = addrs[i];
      obs.bytes = static_cast<double>(row.bytes);
      obs.http = info.http_server();
      obs.https = info.https_server();
      obs.rtmp = (info.flags & classify::kSeenRtmp1935) != 0;
      obs.also_client = info.client();
      if (routes[i]) obs.asn = routes[i]->origin;
      if (countries[i]) obs.country = *countries[i];

      server_hosts[s] = dissector.hosts_of(obs.addr);
      while (next_confirmed < confirmed.confirmed.size() &&
             confirmed.confirmed[next_confirmed] < obs.addr)
        ++next_confirmed;
      const bool has_chain = next_confirmed < confirmed.confirmed.size() &&
                             confirmed.confirmed[next_confirmed] == obs.addr;
      items[s] = probe::MetadataItem{
          obs.addr, server_hosts[s],
          has_chain ? &confirmed.chains[next_confirmed] : nullptr};
      ++s;
    }
    if (last > first) {
      end_route_run(routes[last - 1]);
      end_country_run(countries[last - 1]);
    }
  });
  report.peering_ips = n;
  report.server_ips = server_count;

  // The chunks combine in address order: sums and counts add, and keys
  // keep their first-seen order.
  ChunkTally& total = tallies[0];
  for (std::size_t c = 1; c < chunks; ++c) total.merge(tallies[c]);

  // The report's doubles, converted once from the exact sums.
  for (const auto& [asn, sums] : total.ases) {
    report.by_as.try_emplace(
        asn, AsTally{sums.ips, static_cast<double>(sums.bytes), sums.server_ips,
                     static_cast<double>(sums.server_bytes)});
    const int li = locality_index(asn);
    ++report.peering_locality[li].ases;
    if (sums.server_ips == 0) continue;
    ++report.server_locality[li].ases;
    ++report.server_ases;
  }
  report.peering_ases = total.ases.size();
  for (const auto& [code, sums] : total.countries) {
    report.by_country.try_emplace(
        code, CountryTally{sums.ips, static_cast<double>(sums.bytes),
                           sums.server_ips,
                           static_cast<double>(sums.server_bytes)});
    if (sums.server_ips > 0) ++report.server_countries;
  }
  report.peering_countries = total.countries.size();
  for (int li = 0; li < 3; ++li) {
    report.peering_locality[li].ips = total.locality[li].ips;
    report.peering_locality[li].bytes =
        static_cast<double>(total.locality[li].bytes);
    report.server_locality[li].ips = total.locality[li].server_ips;
    report.server_locality[li].bytes =
        static_cast<double>(total.locality[li].server_bytes);
    // A routed prefix has one origin, hence one locality: the per-locality
    // counts of distinct prefixes add up to the distinct prefixes.
    report.peering_locality[li].prefixes = total.prefixes[li];
    report.server_locality[li].prefixes = total.server_prefixes[li];
    report.peering_prefixes += total.prefixes[li];
    report.server_prefixes += total.server_prefixes[li];
  }

  // ---- metadata harvest ----------------------------------------------------
  // One batched pass over all servers instead of a per-server harvester
  // loop: PTR/SOA lookups ride the probe engine with a shared resolver
  // cache. The pass is lossless here, so each server's metadata is exactly
  // what the synchronous harvest (the test-only MetadataHarvester) yields.
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
