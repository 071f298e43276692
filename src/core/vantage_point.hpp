// VantagePoint — the top-level measurement façade.
//
// Wires the whole pipeline for one observation week: sFlow sample stream
// -> Figure-1 filter cascade -> traffic dissection -> HTTPS probing ->
// metadata harvest -> aggregation against public databases (routing
// table, AS graph locality, geolocation). The output WeeklyReport carries
// everything the paper's tables and figures need for that week.
//
// The unit of work is a WeekSession obtained from open_week(): an RAII
// handle over the week in progress. Feed it samples (one at a time or in
// batches), optionally absorb worker WeekShards built elsewhere, then
// finish() it into a WeeklyReport. Dropping a session discards the week.
//
// The VantagePoint never touches generator ground truth: its inputs are
// the sample stream, active-measurement callbacks, and databases that are
// public in the real world (RouteViews-style routing, GeoLite-style
// geolocation, DNS, root certificates).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "classify/dissector.hpp"
#include "classify/https_prober.hpp"
#include "classify/metadata.hpp"
#include "classify/peering_filter.hpp"
#include "core/org_clusterer.hpp"
#include "core/week_shard.hpp"
#include "geo/geo_database.hpp"
#include "net/as_graph.hpp"
#include "net/routing_table.hpp"
#include "util/flat_hash_map.hpp"

namespace ixp::core {

/// Per-country aggregates (Figure 3, Table 2).
struct CountryTally {
  std::size_t ips = 0;
  double bytes = 0.0;
  std::size_t server_ips = 0;
  double server_bytes = 0.0;

  friend bool operator==(const CountryTally&, const CountryTally&) = default;
};

/// Per-AS aggregates (Table 2's network columns).
struct AsTally {
  std::size_t ips = 0;
  double bytes = 0.0;
  std::size_t server_ips = 0;
  double server_bytes = 0.0;

  friend bool operator==(const AsTally&, const AsTally&) = default;
};

/// Per-locality aggregates (Table 3). Table 3 reports prefixes and ASes
/// only as counts, so they are kept as counts: `prefixes` is the number of
/// distinct routed prefixes whose origin has this locality, `ases` the
/// number of distinct such origin ASes. In server_locality both count only
/// prefixes and ASes holding at least one server IP.
struct LocalityTally {
  std::size_t ips = 0;
  std::size_t prefixes = 0;
  std::size_t ases = 0;
  double bytes = 0.0;

  friend bool operator==(const LocalityTally&, const LocalityTally&) = default;
};

/// One identified server with its observables.
struct ServerObservation {
  net::Ipv4Addr addr;
  double bytes = 0.0;           // expanded bytes the IP "sees"
  bool http = false;
  bool https = false;
  bool rtmp = false;
  bool also_client = false;
  std::optional<net::Asn> asn;  // origin AS per the routing table
  geo::CountryCode country;
  classify::ServerMetadata metadata;
};

struct WeeklyReport {
  int week = 0;
  classify::FilterCounters filters;
  classify::DissectionSummary dissection;
  classify::ProbeFunnel https_funnel;
  classify::MetadataCoverage metadata_coverage;
  std::size_t metadata_cleaned_out = 0;  // §2.4 cleaning losses

  // Visibility (Table 1): peering row and server row.
  std::size_t peering_ips = 0;
  std::size_t peering_prefixes = 0;
  std::size_t peering_ases = 0;
  std::size_t peering_countries = 0;
  std::size_t server_ips = 0;
  std::size_t server_prefixes = 0;
  std::size_t server_ases = 0;
  std::size_t server_countries = 0;

  util::FlatHashMap<geo::CountryCode, CountryTally> by_country;
  util::FlatHashMap<net::Asn, AsTally> by_as;
  /// Index 0/1/2 = A(L)/A(M)/A(G); peering and server variants.
  LocalityTally peering_locality[3];
  LocalityTally server_locality[3];

  /// Sorted by address — canonical regardless of ingest order.
  std::vector<ServerObservation> servers;

  /// Failure containment (DESIGN.md §8): set by the parallel engine when
  /// lenient worker mode dropped batches on worker exceptions. The report
  /// then under-counts by exactly those batches. worker_errors holds the
  /// per-worker dropped-batch counts and is attached only when degraded,
  /// so clean reports stay byte-identical across thread counts.
  bool degraded = false;
  std::vector<std::uint64_t> worker_errors;

  [[nodiscard]] double peering_bytes() const noexcept {
    return filters.bytes_of(classify::TrafficClass::kPeering);
  }
};

/// VantagePoint knobs.
struct VantageOptions {
  int fetches_per_ip = 3;
};

class VantagePoint;

/// The partition edges of `chunks` (>= 1) chunks over the address
/// partitions, given the prefix sums `offset` of their peering-IP counts
/// (classify::kPartitions + 1 entries, offset[0] == 0). Chunk c covers
/// partitions [edges[c], edges[c + 1]); each edge is the first partition
/// at or past an equal share of the IPs, so chunks hold about n / chunks
/// IPs each and may be empty.
[[nodiscard]] std::vector<std::size_t> finish_chunk_edges(
    std::span<const std::size_t> offset, std::size_t chunks);

/// RAII handle over one observation week. Obtained from
/// VantagePoint::open_week(); single-owner, movable. The session is also
/// the reduce point of the parallel engine: make_shard() mints empty
/// worker shards and absorb() folds them back in.
class WeekSession {
 public:
  WeekSession(WeekSession&&) noexcept = default;
  WeekSession& operator=(WeekSession&&) noexcept = default;
  WeekSession(const WeekSession&) = delete;
  WeekSession& operator=(const WeekSession&) = delete;

  /// Ingests a batch occupying the next batch.size() stream positions.
  void observe_batch(std::span<const sflow::FlowSample> batch) {
    shard_.observe_batch(batch, next_seq_);
    next_seq_ += batch.size();
  }

  /// Mints an empty shard of this session's week for a worker thread.
  [[nodiscard]] WeekShard make_shard() const;

  /// Folds a worker shard into the session state.
  void absorb(WeekShard&& shard) { shard_.merge(std::move(shard)); }

  /// Finishes the week: runs the HTTPS prober via `fetch`, harvests
  /// metadata, aggregates everything, on up to `threads` threads (see
  /// VantagePoint::finish_week). The returned report is self-contained;
  /// the session is spent afterwards.
  [[nodiscard]] WeeklyReport finish(const classify::ChainFetcher& fetch,
                                    unsigned threads = 1);

  [[nodiscard]] int week() const noexcept { return week_; }
  [[nodiscard]] std::uint64_t samples_observed() const noexcept {
    return shard_.samples_observed();
  }
  /// The dissector of the week in progress (for advanced callers).
  [[nodiscard]] const classify::TrafficDissector& dissector() const noexcept {
    return shard_.dissector();
  }

 private:
  friend class VantagePoint;
  WeekSession(VantagePoint& vp, int week);

  VantagePoint* vp_;
  int week_;
  WeekShard shard_;
  std::uint64_t next_seq_ = 0;
};

class VantagePoint {
 public:
  VantagePoint(const fabric::Ixp& ixp, const net::RoutingTable& routing,
               const geo::GeoDatabase& geo,
               const std::unordered_map<net::Asn, net::Locality>& locality,
               const dns::ZoneDatabase& dns, const dns::PublicSuffixList& psl,
               const x509::RootStore& roots, VantageOptions options = {});

  /// The vantage point keeps a pointer to the locality map, so a
  /// temporary one would dangle once the declaration ends.
  VantagePoint(const fabric::Ixp& ixp, const net::RoutingTable& routing,
               const geo::GeoDatabase& geo,
               std::unordered_map<net::Asn, net::Locality>&& locality,
               const dns::ZoneDatabase& dns, const dns::PublicSuffixList& psl,
               const x509::RootStore& roots, VantageOptions options = {}) = delete;

  /// Opens a new observation week and hands back its session.
  [[nodiscard]] WeekSession open_week(int week) {
    return WeekSession{*this, week};
  }

  /// Reduces a fully-merged shard into the week's report. This is the
  /// probe/aggregate phase; it iterates observation state in canonical
  /// (sorted-address) order so the report is identical for any shard
  /// split of the same sample stream. The per-IP phases run per chunk of
  /// contiguous address partitions (one chunk at one thread, a few per
  /// thread otherwise) on up to `threads` threads; the report is
  /// identical for any count. `fetch` is called from those threads at
  /// once (see classify::ChainFetcher).
  [[nodiscard]] WeeklyReport finish_week(WeekShard&& shard,
                                         const classify::ChainFetcher& fetch,
                                         unsigned threads = 1);

  /// finish_week over exactly `chunks` chunks (clamped to [1,
  /// classify::kPartitions]). The report is byte-identical for every
  /// count; this reaches the chunkings the thread counts alone do not.
  [[nodiscard]] WeeklyReport finish_week_in_chunks(
      WeekShard&& shard, const classify::ChainFetcher& fetch, unsigned threads,
      std::size_t chunks);

 private:
  friend class WeekSession;

  const fabric::Ixp* ixp_;
  const net::RoutingTable* routing_;
  const geo::GeoDatabase* geo_;
  const std::unordered_map<net::Asn, net::Locality>* locality_;
  const dns::ZoneDatabase* dns_;
  const dns::PublicSuffixList* psl_;
  const x509::RootStore* roots_;
  VantageOptions options_;
};

}  // namespace ixp::core
