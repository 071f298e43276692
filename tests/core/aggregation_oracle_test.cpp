// finish_week's aggregation against a per-IP oracle.
//
// VantagePoint::finish_week tallies a sorted extract of the activity
// table per route run, in exact integer sums, and dedupes prefixes by
// sort-unique. The oracle below is the straightforward form it replaced:
// one activity-table probe per sorted address, double accumulation per
// IP, and a set insert per IP. Both must encode to the same report bytes
// on randomized shards over a hand-built world with nested prefixes
// (the same route in non-adjacent runs), unrouted and ungeolocated IPs,
// and member, near, global and unknown-locality origins.
//
// finish_week extracts, sorts and attributes the activity table one
// address partition at a time, on any number of threads, then sweeps
// and tallies it in chunks of contiguous partitions and concatenates the
// chunks; the boundary case pins runs that cross a partition boundary,
// and runs split across 2, 3 and all chunks, against the oracle at
// several chunk and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/vantage_point.hpp"
#include "probe/metadata_pass.hpp"
#include "probe/sweeps.hpp"
#include "store/snapshot_codec.hpp"
#include "util/rng.hpp"

namespace ixp::core {
namespace {

using net::Asn;
using net::Ipv4Addr;
using net::Ipv4Prefix;

/// The databases a VantagePoint reads, held where the oracle can too.
struct World {
  fabric::Ixp ixp;
  net::RoutingTable routing;
  geo::GeoDatabase geo;
  std::unordered_map<Asn, net::Locality> locality;
  dns::ZoneDatabase dns;
  x509::RootStore roots;
};

/// Observes one sample at stream position `seq`: a one-sample batch.
void observe_one(WeekShard& shard, const sflow::FlowSample& sample,
                 std::size_t seq) {
  shard.observe_batch({&sample, 1}, seq);
}

/// The distinct prefixes and origin ASes behind one LocalityTally's
/// counts, kept as sets by the oracle.
struct LocalitySets {
  std::unordered_set<Ipv4Prefix> prefixes;
  std::unordered_set<Asn> ases;
};

/// The oracle's sets for A(L)/A(M)/A(G), peering and server variants.
struct OracleSets {
  LocalitySets peering[3];
  LocalitySets server[3];
};

/// The per-IP finish_week: HTTPS sweep, per-address tally loop over
/// activity().at() probes, then the metadata pass. The locality counts
/// are the sizes of per-locality sets, handed back through `sets_out`
/// when it is non-null.
WeeklyReport oracle_finish_week(const World& world, const WeekShard& shard,
                                const classify::ChainFetcher& fetch,
                                OracleSets* sets_out = nullptr) {
  const dns::PublicSuffixList& psl = dns::PublicSuffixList::builtin();
  classify::TrafficDissector dissector = shard.dissector();
  WeeklyReport report;
  report.week = shard.week();
  report.filters = shard.counters();

  const std::vector<Ipv4Addr> candidates = dissector.https_candidates();
  probe::HttpsSweep sweep{world.roots, psl, VantageOptions{}.fetches_per_ip};
  probe::HttpsSweepResult sweep_result =
      sweep.run_with_fetcher(candidates, fetch);
  report.https_funnel = sweep_result.funnel;
  std::unordered_map<Ipv4Addr, x509::CertificateChain> confirmed_chains;
  for (const Ipv4Addr addr : sweep_result.confirmed) {
    dissector.confirm_https(addr);
    auto chains = fetch(addr, 1);
    if (!chains.empty()) confirmed_chains.emplace(addr, std::move(chains.front()));
  }
  report.dissection = dissector.summarize();

  const auto locality_index = [&](Asn asn) -> int {
    const auto it = world.locality.find(asn);
    if (it == world.locality.end()) return 2;
    switch (it->second) {
      case net::Locality::kMember: return 0;
      case net::Locality::kNear: return 1;
      default: return 2;
    }
  };

  std::unordered_set<Ipv4Prefix> peering_prefixes;
  std::unordered_set<Asn> peering_ases;
  std::unordered_set<geo::CountryCode> peering_countries;
  std::unordered_set<Ipv4Prefix> server_prefixes;
  std::unordered_set<Asn> server_ases;
  std::unordered_set<geo::CountryCode> server_countries;
  OracleSets sets;

  std::vector<Ipv4Addr> addrs;
  for (const auto& [addr, info] : dissector.activity()) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  std::vector<const net::Route*> routes(addrs.size());
  std::vector<const geo::CountryCode*> countries(addrs.size());
  world.routing.routes_of(addrs, routes);
  world.geo.countries_of(addrs, countries);

  std::vector<std::vector<std::string>> server_hosts;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const Ipv4Addr addr = addrs[i];
    const classify::IpActivity& info = dissector.activity().at(addr);
    ++report.peering_ips;
    const net::Route* route = routes[i];
    const geo::CountryCode* country = countries[i];
    const bool server = info.web_server();
    const double info_bytes = static_cast<double>(info.bytes);

    if (route) {
      peering_prefixes.insert(route->prefix);
      peering_ases.insert(route->origin);
      const int li = locality_index(route->origin);
      report.peering_locality[li].ips += 1;
      sets.peering[li].prefixes.insert(route->prefix);
      sets.peering[li].ases.insert(route->origin);
      report.peering_locality[li].bytes += info_bytes;
      AsTally& as_tally = report.by_as[route->origin];
      as_tally.ips += 1;
      as_tally.bytes += info_bytes;
      if (server) {
        as_tally.server_ips += 1;
        as_tally.server_bytes += info_bytes;
        server_prefixes.insert(route->prefix);
        server_ases.insert(route->origin);
        report.server_locality[li].ips += 1;
        sets.server[li].prefixes.insert(route->prefix);
        sets.server[li].ases.insert(route->origin);
        report.server_locality[li].bytes += info_bytes;
      }
    }
    if (country) {
      peering_countries.insert(*country);
      CountryTally& tally = report.by_country[*country];
      tally.ips += 1;
      tally.bytes += info_bytes;
      if (server) {
        tally.server_ips += 1;
        tally.server_bytes += info_bytes;
        server_countries.insert(*country);
      }
    }

    if (!server) continue;
    ++report.server_ips;
    ServerObservation obs;
    obs.addr = addr;
    obs.bytes = info_bytes;
    obs.http = info.http_server();
    obs.https = info.https_server();
    obs.rtmp = (info.flags & classify::kSeenRtmp1935) != 0;
    obs.also_client = info.client();
    if (route) obs.asn = route->origin;
    if (country) obs.country = *country;
    server_hosts.push_back(dissector.hosts_of(addr));
    report.servers.push_back(std::move(obs));
  }

  std::vector<probe::MetadataItem> items;
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    const Ipv4Addr addr = report.servers[i].addr;
    const auto chain_it = confirmed_chains.find(addr);
    items.push_back(probe::MetadataItem{
        addr, server_hosts[i],
        chain_it == confirmed_chains.end() ? nullptr : &chain_it->second});
  }
  probe::MetadataPass pass{world.dns, psl};
  probe::MetadataPassResult harvested = pass.run(items);
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    ServerObservation& obs = report.servers[i];
    obs.metadata = std::move(harvested.metadata[i]);
    if (!obs.metadata.has_any() &&
        (!server_hosts[i].empty() || obs.metadata.hostname))
      ++report.metadata_cleaned_out;
    report.metadata_coverage.add(obs.metadata);
  }

  report.peering_prefixes = peering_prefixes.size();
  report.peering_ases = peering_ases.size();
  report.peering_countries = peering_countries.size();
  report.server_prefixes = server_prefixes.size();
  report.server_ases = server_ases.size();
  report.server_countries = server_countries.size();
  for (int li = 0; li < 3; ++li) {
    report.peering_locality[li].prefixes = sets.peering[li].prefixes.size();
    report.peering_locality[li].ases = sets.peering[li].ases.size();
    report.server_locality[li].prefixes = sets.server[li].prefixes.size();
    report.server_locality[li].ases = sets.server[li].ases.size();
  }
  if (sets_out != nullptr) *sets_out = std::move(sets);
  return report;
}

constexpr int kWeek = 45;
const Asn kMemberAs{100};
const Asn kNearAs{200};
const Asn kGlobalAs{300};
const Asn kUnknownAs{400};  // absent from the locality map

class AggregationOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World;
    World& w = *world_;
    for (const Asn asn : {kMemberAs, kNearAs}) {
      fabric::Member member;
      member.asn = asn;
      w.ixp.add_member(member);
    }
    w.locality[kMemberAs] = net::Locality::kMember;
    w.locality[kNearAs] = net::Locality::kNear;
    w.locality[kGlobalAs] = net::Locality::kGlobal;

    // Addresses are drawn from 10.0.0.0/14 plus the unrouted 11.0.0.0/16.
    // Nested announcements split the covering routes into several runs.
    // The random more-specifics stay out of 10.0/16, so the fixed routes
    // there are exactly those announced first.
    const auto at = [](int a, int b, int c, int d) {
      return Ipv4Addr{static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                      static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)};
    };
    w.routing.announce(Ipv4Prefix{at(10, 0, 0, 0), 14}, kMemberAs);
    w.routing.announce(Ipv4Prefix{at(10, 0, 64, 0), 18}, kNearAs);
    w.routing.announce(Ipv4Prefix{at(10, 0, 80, 0), 20}, kUnknownAs);
    w.routing.announce(Ipv4Prefix{at(10, 0, 82, 0), 24}, kGlobalAs);
    w.routing.announce(Ipv4Prefix{at(10, 1, 0, 0), 16}, kGlobalAs);
    w.routing.announce(Ipv4Prefix{at(10, 1, 128, 0), 24}, kMemberAs);
    w.routing.announce(Ipv4Prefix{at(10, 2, 0, 0), 16}, kNearAs);
    util::Rng rng{0xa66e};
    const Asn origins[] = {kMemberAs, kNearAs, kGlobalAs, kUnknownAs};
    for (int i = 0; i < 24; ++i) {
      const auto length = static_cast<std::uint8_t>(rng.next_in(20, 28));
      const auto addr = static_cast<std::uint32_t>(0x0a010000u +
                                                   rng.next_below(3u << 16));
      w.routing.announce(
          Ipv4Prefix{Ipv4Addr{addr}, length}, origins[rng.next_below(4)]);
    }

    // Geolocation covers part of the routed space; the rest of 10.3/16
    // and all of 11/16 stay ungeolocated.
    w.geo.assign(Ipv4Prefix{at(10, 0, 0, 0), 15}, geo::CountryCode{'D', 'E'});
    w.geo.assign(Ipv4Prefix{at(10, 0, 64, 0), 18}, geo::CountryCode{'U', 'S'});
    w.geo.assign(Ipv4Prefix{at(10, 2, 0, 0), 16}, geo::CountryCode{'F', 'R'});
    w.geo.assign(Ipv4Prefix{at(10, 3, 0, 0), 18}, geo::CountryCode{'D', 'E'});
    w.geo.assign(Ipv4Prefix{at(11, 0, 128, 0), 17}, geo::CountryCode{'N', 'L'});
    w.roots.trust("root");
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static VantagePoint make_vantage() {
    return VantagePoint{world_->ixp,      world_->routing,
                        world_->geo,      world_->locality,
                        world_->dns,      dns::PublicSuffixList::builtin(),
                        world_->roots};
  }

  static std::vector<x509::CertificateChain> no_fetch(Ipv4Addr, int) {
    return {};
  }

  /// A random address: mostly routed, a tenth from the unrouted /16.
  static Ipv4Addr random_addr(util::Rng& rng) {
    if (rng.next_bool(0.1))
      return Ipv4Addr{static_cast<std::uint32_t>(0x0b000000u + rng.next_below(1u << 16))};
    return Ipv4Addr{static_cast<std::uint32_t>(0x0a000000u + rng.next_below(1u << 18))};
  }

  /// One peering sample between member ports, with a payload that marks
  /// the server side (HTTP response or request), the client side, or
  /// nothing; byte counts span several orders of magnitude.
  static sflow::FlowSample random_sample(util::Rng& rng,
                                         const std::vector<Ipv4Addr>& servers,
                                         const std::vector<Ipv4Addr>& clients) {
    sflow::FrameSpec spec;
    spec.src_mac = fabric::Ixp::port_mac_for(kMemberAs);
    spec.dst_mac = fabric::Ixp::port_mac_for(kNearAs);
    const Ipv4Addr server = servers[rng.next_below(servers.size())];
    const Ipv4Addr client = clients[rng.next_below(clients.size())];
    std::string payload;
    const double kind = rng.next_double();
    if (kind < 0.3) {
      spec.src_ip = server;
      spec.dst_ip = client;
      spec.src_port = 80;
      spec.dst_port = 40000;
      payload = "HTTP/1.1 200 OK\r\nServer: t\r\n";
    } else if (kind < 0.5) {
      spec.src_ip = client;
      spec.dst_ip = server;
      spec.src_port = 40000;
      spec.dst_port = rng.next_bool(0.5) ? 80 : 8080;
      payload = "GET / HTTP/1.1\r\nHost: h" +
                std::to_string(rng.next_below(4)) + ".example.com\r\n";
    } else if (kind < 0.6) {
      spec.src_ip = client;
      spec.dst_ip = server;
      spec.src_port = 40000;
      spec.dst_port = rng.next_bool(0.5) ? 443 : 1935;
      payload = "opaque";
    } else {
      spec.src_ip = client;
      spec.dst_ip = clients[rng.next_below(clients.size())];
      spec.src_port = 50000;
      spec.dst_port = 50001;
      payload = "noise";
    }
    const auto wire_len = static_cast<std::uint16_t>(rng.next_in(64, 1500));
    std::vector<std::byte> data(payload.size());
    std::memcpy(data.data(), payload.data(), payload.size());
    sflow::FlowSample sample;
    sample.sampling_rate = static_cast<std::uint32_t>(1u << rng.next_below(15));
    sample.frame = sflow::build_tcp_frame(spec, data, payload.size());
    sample.frame.frame_length = wire_len;
    return sample;
  }

  static World* world_;
};

World* AggregationOracleTest::world_ = nullptr;

TEST_F(AggregationOracleTest, RandomShardsEncodeLikeThePerIpOracle) {
  util::Rng rng{0x0eac1e};
  auto vp = make_vantage();
  bool unrouted = false;
  bool ungeolocated = false;
  bool unknown_origin = false;
  std::size_t localities_seen = 0;
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<Ipv4Addr> servers(static_cast<std::size_t>(rng.next_in(20, 400)));
    std::vector<Ipv4Addr> clients(static_cast<std::size_t>(rng.next_in(50, 2000)));
    for (Ipv4Addr& addr : servers) addr = random_addr(rng);
    for (Ipv4Addr& addr : clients) addr = random_addr(rng);
    const std::size_t samples = static_cast<std::size_t>(rng.next_in(100, 4000));

    WeekSession session = vp.open_week(kWeek);
    WeekShard shard = session.make_shard();
    for (std::size_t i = 0; i < samples; ++i)
      observe_one(shard, random_sample(rng, servers, clients), i);
    const WeeklyReport want = oracle_finish_week(*world_, shard, no_fetch);
    session.absorb(std::move(shard));
    const WeeklyReport got = session.finish(no_fetch);

    EXPECT_TRUE(store::SnapshotCodec::encode_report(got) ==
                store::SnapshotCodec::encode_report(want));
    // The per-key maps keep the oracle's first-seen insertion order, so
    // callers that iterate them see the same sequence.
    std::vector<Asn> got_ases;
    std::vector<Asn> want_ases;
    for (const auto& [asn, tally] : got.by_as) got_ases.push_back(asn);
    for (const auto& [asn, tally] : want.by_as) want_ases.push_back(asn);
    EXPECT_EQ(got_ases, want_ases);
    std::vector<geo::CountryCode> got_codes;
    std::vector<geo::CountryCode> want_codes;
    for (const auto& [code, tally] : got.by_country) got_codes.push_back(code);
    for (const auto& [code, tally] : want.by_country) want_codes.push_back(code);
    EXPECT_EQ(got_codes, want_codes);

    std::size_t routed = 0;
    std::size_t located = 0;
    for (const LocalityTally& tally : got.peering_locality) routed += tally.ips;
    for (const auto& [code, tally] : got.by_country) located += tally.ips;
    unrouted = unrouted || routed < got.peering_ips;
    ungeolocated = ungeolocated || located < got.peering_ips;
    unknown_origin = unknown_origin || got.by_as.contains(kUnknownAs);
    std::size_t served = 0;
    for (const LocalityTally& tally : got.server_locality)
      served += tally.ips > 0 ? 1 : 0;
    localities_seen = std::max(localities_seen, served);
  }
  // The shards reached every case the aggregation distinguishes.
  EXPECT_TRUE(unrouted);
  EXPECT_TRUE(ungeolocated);
  EXPECT_TRUE(unknown_origin);
  EXPECT_EQ(localities_seen, 3u);
}

TEST_F(AggregationOracleTest, RecurringRouteServedInOneRunOnly) {
  // 10.0.0.0/14 (member) is interrupted by 10.0.64.0/18 (near): its
  // addresses below and above the /18 form two runs of one route. Only
  // the upper run holds a server; the /14 must still count as a server
  // prefix exactly once, and the /18's and the unrouted client's bytes
  // must land where the oracle puts them.
  auto vp = make_vantage();
  util::Rng rng{7};
  const std::vector<Ipv4Addr> servers{Ipv4Addr{10, 0, 200, 1}};
  const std::vector<Ipv4Addr> clients{Ipv4Addr{10, 0, 1, 1}, Ipv4Addr{10, 0, 70, 1},
                                      Ipv4Addr{11, 0, 1, 1}, Ipv4Addr{10, 0, 81, 9}};
  WeekSession session = vp.open_week(kWeek);
  WeekShard shard = session.make_shard();
  for (std::size_t i = 0; i < 64; ++i)
    observe_one(shard, random_sample(rng, servers, clients), i);
  OracleSets sets;
  const WeeklyReport want =
      oracle_finish_week(*world_, shard, no_fetch, &sets);
  session.absorb(std::move(shard));
  const WeeklyReport got = session.finish(no_fetch);

  EXPECT_TRUE(store::SnapshotCodec::encode_report(got) ==
              store::SnapshotCodec::encode_report(want));
  EXPECT_EQ(got.server_prefixes, 1u);
  EXPECT_EQ(got.server_locality[0].prefixes, 1u);
  EXPECT_EQ(sets.peering[0].prefixes.count(
                Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 14}),
            1u);
  EXPECT_EQ(got.peering_locality[0].prefixes, sets.peering[0].prefixes.size());
}

TEST_F(AggregationOracleTest, RunsCrossingPartitionBoundaries) {
  // A world of its own whose routes and country ranges span partition
  // boundaries (every 2^(32 - kPartitionBits) addresses), with servers
  // and clients packed on both sides of each boundary, and one dense
  // route and country run over four whole partitions that the chunk
  // edges split.
  World w;
  for (const Asn asn : {kMemberAs, kNearAs}) {
    fabric::Member member;
    member.asn = asn;
    w.ixp.add_member(member);
  }
  w.locality[kMemberAs] = net::Locality::kMember;
  w.locality[kNearAs] = net::Locality::kNear;
  w.locality[kGlobalAs] = net::Locality::kGlobal;
  constexpr std::uint32_t kSpan = std::uint32_t{1} << (32 - classify::kPartitionBits);
  const std::uint32_t b1 = 0x0a000000u + kSpan;      // inside 10.0.0.0/9
  const std::uint32_t b2 = 0x0a800000u + kSpan;      // inside 10.128.0.0/9
  const std::uint32_t b3 = 0x0a800000u;              // between the two /9s
  const std::uint32_t b4 = 0x0b000000u + 2 * kSpan;  // inside 11.0.0.0/8
  const std::uint32_t dense = 0x0c000000u;           // 12.0.0.0/8
  ASSERT_NE(classify::partition_of(Ipv4Addr{b1 - 1}),
            classify::partition_of(Ipv4Addr{b1}));
  // The member AS holds a /9, loses the next /9 to the near AS, and
  // recurs in 11/8 and 12/8 past several more boundaries; a
  // more-specific /24 of the global AS starts right at b1 and interrupts
  // the first /9's run.
  w.routing.announce(Ipv4Prefix{Ipv4Addr{0x0a000000u}, 9}, kMemberAs);
  w.routing.announce(Ipv4Prefix{Ipv4Addr{b1}, 24}, kGlobalAs);
  w.routing.announce(Ipv4Prefix{Ipv4Addr{0x0a800000u}, 9}, kNearAs);
  w.routing.announce(Ipv4Prefix{Ipv4Addr{0x0b000000u}, 8}, kMemberAs);
  w.routing.announce(Ipv4Prefix{Ipv4Addr{dense}, 8}, kMemberAs);
  w.routing.announce(Ipv4Prefix{Ipv4Addr{0x00000000u}, 8}, kNearAs);
  w.routing.announce(Ipv4Prefix{Ipv4Addr{0xff000000u}, 8}, kUnknownAs);
  // One country range over all of 10/8, others over 11/8 and 12/8, and
  // the two address-space ends in a fourth; 10/8's run crosses b1, b2
  // and b3.
  w.geo.assign(Ipv4Prefix{Ipv4Addr{0x0a000000u}, 8}, geo::CountryCode{'D', 'E'});
  w.geo.assign(Ipv4Prefix{Ipv4Addr{0x0b000000u}, 8}, geo::CountryCode{'F', 'R'});
  w.geo.assign(Ipv4Prefix{Ipv4Addr{dense}, 8}, geo::CountryCode{'N', 'L'});
  w.geo.assign(Ipv4Prefix{Ipv4Addr{0x00000000u}, 8}, geo::CountryCode{'U', 'S'});
  w.geo.assign(Ipv4Prefix{Ipv4Addr{0xff000000u}, 8}, geo::CountryCode{'U', 'S'});
  w.roots.trust("root");
  VantagePoint vp{w.ixp, w.routing, w.geo, w.locality, w.dns,
                  dns::PublicSuffixList::builtin(), w.roots};

  // Servers and clients alternate across each boundary; 0.0.0.0 and
  // 255.255.255.255 sit at the first and last partitions' outer edges.
  // 12/8 holds most of the IPs, 32 in each of its four partitions, so
  // the chunk edges of small chunk counts fall inside its run.
  std::vector<Ipv4Addr> servers{Ipv4Addr{0u}, Ipv4Addr{0xffffffffu}};
  std::vector<Ipv4Addr> clients{Ipv4Addr{1u}, Ipv4Addr{0xfffffffeu}};
  for (const std::uint32_t b : {b1, b2, b3, b4}) {
    for (std::uint32_t d = 1; d <= 4; ++d) {
      (d % 2 == 0 ? servers : clients).push_back(Ipv4Addr{b - d});
      (d % 2 == 1 ? servers : clients).push_back(Ipv4Addr{b + d - 1});
    }
  }
  for (std::uint32_t k = 0; k < 128; ++k)
    (k % 2 == 0 ? servers : clients).push_back(Ipv4Addr{dense + k * (kSpan / 32) + k});
  // Every fourth dense server answers the HTTPS crawl with a stable chain
  // of its own, so confirmed servers and their chains sit in every chunk.
  std::unordered_set<Ipv4Addr> https;
  for (std::size_t i = 0; i < servers.size(); ++i)
    if ((servers[i].value() >> 24) == 12 && i % 4 == 0) https.insert(servers[i]);
  const classify::ChainFetcher fetch = [&https](Ipv4Addr addr, int times) {
    std::vector<x509::CertificateChain> fetched;
    if (!https.contains(addr)) return fetched;
    x509::Certificate leaf;
    leaf.subject = *dns::DnsName::parse("s" + std::to_string(addr.value()) + ".example.com");
    leaf.key_usages = {x509::KeyUsage::kServerAuth};
    leaf.subject_key = "k" + std::to_string(addr.value());
    leaf.issuer_key = "root";
    leaf.not_after = 100000;
    for (int i = 0; i < times; ++i) fetched.push_back(x509::CertificateChain{{leaf}});
    return fetched;
  };

  util::Rng rng{0xb0da};
  WeekSession probe_session = vp.open_week(kWeek);
  WeekShard shard = probe_session.make_shard();
  for (std::size_t i = 0; i < 12000; ++i)
    observe_one(shard, random_sample(rng, servers, clients), i);
  for (const Ipv4Addr addr : servers)
    ASSERT_TRUE(shard.dissector().activity().contains(addr)) << addr.to_string();
  const WeeklyReport want = oracle_finish_week(w, shard, fetch);
  const std::vector<std::byte> want_bytes = store::SnapshotCodec::encode_report(want);
  ASSERT_GT(want.server_ips, 8u);
  ASSERT_TRUE(want.by_as.contains(kGlobalAs));
  ASSERT_GT(want.https_funnel.confirmed, 8u);
  ASSERT_GT(want.metadata_coverage.with_cert, 8u);

  std::vector<Asn> want_ases;
  for (const auto& [asn, tally] : want.by_as) want_ases.push_back(asn);
  std::vector<geo::CountryCode> want_codes;
  for (const auto& [code, tally] : want.by_country) want_codes.push_back(code);

  // The chunks the dense run (one route, one country range) lands in.
  const classify::ActivityView activity = shard.dissector().activity();
  std::vector<std::size_t> offset(classify::kPartitions + 1, 0);
  for (std::size_t p = 0; p < classify::kPartitions; ++p)
    offset[p + 1] = offset[p] + activity.partition(p).size();
  const auto dense_run_chunks = [&](std::size_t chunks) {
    const std::vector<std::size_t> edges = finish_chunk_edges(offset, chunks);
    std::size_t touched = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      bool holds = false;
      for (std::size_t p = edges[c]; p < edges[c + 1]; ++p)
        holds = holds || ((p << (32 - classify::kPartitionBits)) >> 24 == 12 &&
                          !activity.partition(p).empty());
      touched += holds ? 1 : 0;
    }
    return touched;
  };
  // Split across 2, 3 and all chunks: at kPartitions chunks every
  // partition of 12/8 is a chunk of its own.
  EXPECT_EQ(dense_run_chunks(1), 1u);
  EXPECT_EQ(dense_run_chunks(2), 2u);
  EXPECT_EQ(dense_run_chunks(3), 3u);
  EXPECT_EQ(dense_run_chunks(classify::kPartitions), 4u);

  for (const std::size_t chunks : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                   std::size_t{7}, classify::kPartitions}) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("chunks " + std::to_string(chunks) + ", threads " +
                   std::to_string(threads));
      const WeeklyReport got =
          vp.finish_week_in_chunks(WeekShard{shard}, fetch, threads, chunks);
      EXPECT_TRUE(store::SnapshotCodec::encode_report(got) == want_bytes);
      std::vector<Asn> got_ases;
      for (const auto& [asn, tally] : got.by_as) got_ases.push_back(asn);
      EXPECT_EQ(got_ases, want_ases);
      std::vector<geo::CountryCode> got_codes;
      for (const auto& [code, tally] : got.by_country) got_codes.push_back(code);
      EXPECT_EQ(got_codes, want_codes);
      EXPECT_EQ(got.peering_ips, want.peering_ips);
      EXPECT_EQ(got.server_prefixes, want.server_prefixes);
      EXPECT_EQ(got.metadata_coverage.with_cert, want.metadata_coverage.with_cert);
    }
  }
  // finish() picks its own chunking per thread count.
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    WeekSession session = vp.open_week(kWeek);
    session.absorb(WeekShard{shard});
    EXPECT_TRUE(store::SnapshotCodec::encode_report(session.finish(fetch, threads)) ==
                want_bytes);
  }
}

}  // namespace
}  // namespace ixp::core
