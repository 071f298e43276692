#include "gen/internet.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "serial_tables.hpp"

namespace ixp::gen {
namespace {

/// One shared model for the whole suite: construction is the expensive
/// part and the model is immutable.
const InternetModel& model() {
  static const InternetModel instance{ScaleConfig::test()};
  return instance;
}

TEST(InternetModel, RejectsInconsistentConfigs) {
  ScaleConfig bad = ScaleConfig::test();
  bad.as_count = bad.member_count;  // no room for non-members
  EXPECT_THROW(InternetModel{bad}, std::invalid_argument);
  ScaleConfig bad2 = ScaleConfig::test();
  bad2.prefix_count = bad2.as_count - 1;
  EXPECT_THROW(InternetModel{bad2}, std::invalid_argument);
}

TEST(InternetModel, StructuralCountsMatchConfig) {
  const auto& m = model();
  const auto& cfg = m.config();
  EXPECT_EQ(m.ases().size(), cfg.as_count);
  EXPECT_GE(m.prefixes().size(), cfg.prefix_count);
  EXPECT_EQ(m.ixp().member_count_at(cfg.first_week), cfg.member_count);
  EXPECT_EQ(m.ixp().member_count_at(cfg.last_week),
            cfg.member_count + cfg.member_joins);
  EXPECT_GE(m.orgs().size(), cfg.org_count);
  EXPECT_EQ(m.sites().size(), cfg.site_count);
  EXPECT_EQ(m.resolvers().size(), cfg.resolver_candidates);
}

TEST(InternetModel, EveryPrefixRoutesToItsAs) {
  const auto& m = model();
  for (std::size_t p = 0; p < m.prefixes().size(); p += 37) {
    const auto& record = m.prefixes()[p];
    const auto origin = m.routing().origin_of(record.prefix.network());
    ASSERT_TRUE(origin);
    EXPECT_EQ(*origin, m.ases()[record.as_index].asn);
  }
}

TEST(InternetModel, PrefixesAreDisjoint) {
  // Sequential allocation must never overlap: each prefix's network
  // address must route back to exactly that prefix.
  const auto& m = model();
  for (std::size_t p = 0; p < m.prefixes().size(); p += 23) {
    const auto& record = m.prefixes()[p];
    const auto found = m.routing().prefix_of(record.prefix.network());
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, record.prefix);
  }
}

TEST(InternetModel, GeoMatchesAsCountry) {
  const auto& m = model();
  for (std::size_t p = 0; p < m.prefixes().size(); p += 41) {
    const auto& record = m.prefixes()[p];
    const auto country = m.geo_db().country_of(record.prefix.address_at(1));
    ASSERT_TRUE(country);
    EXPECT_EQ(*country, m.ases()[record.as_index].country);
  }
}

TEST(InternetModel, BenchScaleTablesEqualASerialRebuild) {
  // At 1/256 the address cursor wraps past the top of the space, so later
  // prefixes re-allocate earlier ones: their route and country are the
  // later AS's, as a re-announce or re-assign() makes them.
  ScaleConfig cfg = ScaleConfig::bench(1.0 / 256.0);
  cfg.seed = 1;
  const InternetModel m{cfg};
  EXPECT_EQ(reallocated_prefixes(m), 10'604u);
  expect_tables_equal_serial_rebuild(m, /*random=*/1'000'000);
}

TEST(InternetModel, LocalityPartitionIsComplete) {
  const auto& m = model();
  std::size_t members = 0;
  std::size_t near = 0;
  std::size_t global = 0;
  for (const AsRecord& as : m.ases()) {
    switch (as.locality) {
      case net::Locality::kMember: ++members; break;
      case net::Locality::kNear: ++near; break;
      default: ++global; break;
    }
    if (as.member) {
      EXPECT_EQ(as.locality, net::Locality::kMember);
    }
  }
  EXPECT_EQ(members, m.config().member_count + m.config().member_joins);
  EXPECT_GT(near, 0u);
  EXPECT_GT(global, 0u);
}

TEST(InternetModel, EntryMembersAreMembers) {
  const auto& m = model();
  for (const AsRecord& as : m.ases()) {
    const AsRecord& entry = m.ases()[as.entry_member];
    EXPECT_TRUE(entry.member) << as.asn.to_string();
  }
}

TEST(InternetModel, ServerAddressesAreUniqueAndRouted) {
  const auto& m = model();
  std::unordered_set<net::Ipv4Addr> seen;
  for (const ServerRecord& server : m.servers()) {
    EXPECT_TRUE(seen.insert(server.addr).second) << "duplicate server IP";
    const auto origin = m.routing().origin_of(server.addr);
    ASSERT_TRUE(origin);
    EXPECT_EQ(*origin, m.ases()[server.host_as].asn);
  }
}

TEST(InternetModel, ServerLookupRoundTrips) {
  const auto& m = model();
  for (std::uint32_t s = 0; s < m.servers().size(); s += 29) {
    const auto found = m.server_by_addr(m.servers()[s].addr);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, s);
  }
  EXPECT_FALSE(m.server_by_addr(net::Ipv4Addr{250, 250, 250, 250}).has_value());
}

TEST(InternetModel, NamedHeadOrgsExist) {
  const auto& m = model();
  for (const char* name : {"akamai", "google", "hetzner", "vkontakte",
                           "cloudflare", "ec2", "netflix", "cdn77", "nimbus",
                           "softlayer", "gianthost"}) {
    const auto org = m.org_by_name(name);
    ASSERT_TRUE(org) << name;
    EXPECT_TRUE(m.orgs()[*org].named_head) << name;
  }
  EXPECT_FALSE(m.org_by_name("does-not-exist").has_value());
}

TEST(InternetModel, AkamaiIsHeterogeneouslyDeployed) {
  const auto& m = model();
  const auto akamai = *m.org_by_name("akamai");
  std::unordered_set<std::uint32_t> ases;
  std::size_t blind = 0;
  for (const std::uint32_t s : m.org_servers(akamai)) {
    ases.insert(m.servers()[s].host_as);
    if (!m.servers()[s].visible()) ++blind;
  }
  EXPECT_GT(ases.size(), 3u);   // spread across third-party ASes
  EXPECT_GT(blind, 0u);         // private clusters / far regions exist
}

TEST(InternetModel, Cdn77HasNoAsn) {
  const auto& m = model();
  const auto cdn77 = *m.org_by_name("cdn77");
  EXPECT_FALSE(m.orgs()[cdn77].home_as.has_value());
  EXPECT_TRUE(m.orgs()[cdn77].publishes_server_ips);
  EXPECT_GT(m.orgs()[cdn77].server_count, 0u);
}

TEST(InternetModel, StableServersAreAlwaysActive) {
  const auto& m = model();
  int checked = 0;
  for (std::uint32_t s = 0; s < m.servers().size() && checked < 200; ++s) {
    if (m.servers()[s].activity.kind != ActivityKind::kStable) continue;
    ++checked;
    for (int w = m.config().first_week; w <= m.config().last_week; ++w)
      EXPECT_TRUE(m.server_active(s, w));
  }
  EXPECT_GT(checked, 0);
}

TEST(InternetModel, ArrivalsInactiveBeforeFirstWeek) {
  const auto& m = model();
  int checked = 0;
  for (std::uint32_t s = 0; s < m.servers().size() && checked < 200; ++s) {
    const auto& activity = m.servers()[s].activity;
    if (activity.kind != ActivityKind::kArrival) continue;
    ++checked;
    for (int w = m.config().first_week; w < activity.first_week; ++w)
      EXPECT_FALSE(m.server_active(s, w));
    EXPECT_TRUE(m.server_active(s, activity.first_week));
  }
  EXPECT_GT(checked, 0);
}

TEST(InternetModel, ActivityIsDeterministic) {
  const auto& m = model();
  for (std::uint32_t s = 0; s < std::min<std::size_t>(m.servers().size(), 500); ++s) {
    EXPECT_EQ(m.server_active(s, 42), m.server_active(s, 42));
  }
}

TEST(InternetModel, ClientAddrDeterministicAndRouted) {
  const auto& m = model();
  for (std::uint64_t k = 0; k < 200; ++k) {
    const auto a = m.client_addr(k);
    EXPECT_EQ(a.addr, m.client_addr(k).addr);
    const auto origin = m.routing().origin_of(a.addr);
    ASSERT_TRUE(origin.has_value());
    EXPECT_EQ(*origin, m.ases()[a.as_index].asn);
  }
}

TEST(InternetModel, FetchChainsBehaviours) {
  const auto& m = model();
  bool saw_valid = false;
  bool saw_squatter = false;
  bool saw_unstable = false;
  for (std::uint32_t s = 0; s < m.servers().size(); ++s) {
    const ServerRecord& server = m.servers()[s];
    const auto chains = m.fetch_chains(server.addr, 3, 45);
    switch (server.tls) {
      case TlsBehavior::kNoResponse:
        EXPECT_TRUE(chains.empty());
        break;
      case TlsBehavior::kValidStable:
        ASSERT_EQ(chains.size(), 3u);
        EXPECT_EQ(chains[0], chains[1]);
        saw_valid = true;
        break;
      case TlsBehavior::kSquatter:
        ASSERT_EQ(chains.size(), 3u);
        EXPECT_TRUE(chains[0].empty());
        saw_squatter = true;
        break;
      case TlsBehavior::kUnstable:
        ASSERT_EQ(chains.size(), 3u);
        EXPECT_NE(chains[0].leaf().subject, chains[1].leaf().subject);
        saw_unstable = true;
        break;
      case TlsBehavior::kInvalidCert:
        ASSERT_EQ(chains.size(), 3u);
        break;
    }
  }
  EXPECT_TRUE(saw_valid);
  EXPECT_TRUE(saw_squatter);
  EXPECT_TRUE(saw_unstable);
  // Unknown IPs never answer.
  EXPECT_TRUE(m.fetch_chains(net::Ipv4Addr{250, 0, 0, 1}, 3, 45).empty());
}

TEST(InternetModel, PublishedServersCoverEc2Tenants) {
  const auto& m = model();
  const auto ec2 = *m.org_by_name("ec2");
  const auto published = m.published_servers(ec2);
  EXPECT_GT(published.size(), m.orgs()[ec2].server_count);  // tenants included
  // Netflix servers sit inside the published ranges.
  const auto netflix = *m.org_by_name("netflix");
  const auto& netflix_servers = m.org_servers(netflix);
  ASSERT_FALSE(netflix_servers.empty());
  std::unordered_set<net::Ipv4Addr> range;
  for (const auto& p : published) range.insert(p.addr);
  std::size_t inside = 0;
  for (const std::uint32_t s : netflix_servers)
    inside += range.count(m.servers()[s].addr);
  EXPECT_EQ(inside, netflix_servers.size());
}

TEST(InternetModel, UnpublishedOrgReturnsNothing) {
  const auto& m = model();
  const auto hetzner = *m.org_by_name("hetzner");
  EXPECT_TRUE(m.published_servers(hetzner).empty());
}

TEST(InternetModel, ResolveSitePrivateClusterScoping) {
  const auto& m = model();
  // Find a private-cluster server and resolve its org's site from inside
  // and outside the hosting AS.
  for (std::uint32_t s = 0; s < m.servers().size(); ++s) {
    const ServerRecord& server = m.servers()[s];
    if (server.blind != BlindReason::kPrivateCluster) continue;
    // Locate a site of the content org.
    std::optional<std::size_t> rank;
    for (std::size_t r = 0; r < m.sites().size(); ++r) {
      if (m.sites()[r].org == server.content_org) {
        rank = r;
        break;
      }
    }
    if (!rank) continue;
    dns::Resolver inside{net::Ipv4Addr{1, 2, 3, 4},
                         m.ases()[server.host_as].asn,
                         dns::ResolverBehavior::kOpen};
    dns::Resolver closed{net::Ipv4Addr{1, 2, 3, 4},
                         m.ases()[server.host_as].asn,
                         dns::ResolverBehavior::kClosed};
    const auto via_inside = m.resolve_site(*rank, inside, 45);
    EXPECT_TRUE(m.resolve_site(*rank, closed, 45).empty());
    // The inside resolver may return the private server; an unrelated
    // resolver must never return it unless it is in the same AS.
    (void)via_inside;
    return;  // one case suffices
  }
  GTEST_SKIP() << "no private-cluster server with a site at this scale";
}

TEST(InternetModel, ResellerGrowthDoubles) {
  const auto& m = model();
  // Count servers behind the reseller entry (reseller-customer hosted)
  // active in the first vs last week.
  std::size_t first = 0;
  std::size_t last = 0;
  for (std::uint32_t s = 0; s < m.servers().size(); ++s) {
    const ServerRecord& server = m.servers()[s];
    if (m.ases()[server.host_as].role != AsRole::kResellerCustomer) continue;
    if (m.server_active(s, m.config().first_week)) ++first;
    if (m.server_active(s, m.config().last_week)) ++last;
  }
  EXPECT_GT(first, 0u);
  EXPECT_GT(static_cast<double>(last), 1.5 * static_cast<double>(first));
}

TEST(InternetModel, SandyDipInWeek44) {
  const auto& m = model();
  const auto nimbus = *m.org_by_name("nimbus");
  std::size_t active_43 = 0;
  std::size_t active_44 = 0;
  for (const std::uint32_t s : m.org_servers(nimbus)) {
    const auto& dcs = m.orgs()[nimbus].data_centers;
    if (m.servers()[s].data_center < 0 ||
        dcs[static_cast<std::size_t>(m.servers()[s].data_center)].name !=
            "us-east")
      continue;
    if (m.server_active(s, 43)) ++active_43;
    if (m.server_active(s, 44)) ++active_44;
  }
  EXPECT_GT(active_43, 0u);
  EXPECT_LT(static_cast<double>(active_44), 0.3 * static_cast<double>(active_43));
}

TEST(InternetModel, NetflixExpansionLandsInWeeks49To51) {
  const auto& m = model();
  const auto netflix = *m.org_by_name("netflix");
  std::size_t before = 0;
  std::size_t after = 0;
  for (const std::uint32_t s : m.org_servers(netflix)) {
    if (m.server_active(s, 45)) ++before;
    if (m.server_active(s, 51)) ++after;
  }
  EXPECT_GT(after, before);
}

TEST(InternetModel, DeterministicConstruction) {
  const InternetModel a{ScaleConfig::test()};
  const InternetModel b{ScaleConfig::test()};
  ASSERT_EQ(a.servers().size(), b.servers().size());
  for (std::uint32_t s = 0; s < a.servers().size(); s += 17) {
    EXPECT_EQ(a.servers()[s].addr, b.servers()[s].addr);
    EXPECT_EQ(a.servers()[s].org, b.servers()[s].org);
  }
  ASSERT_EQ(a.sites().size(), b.sites().size());
  EXPECT_EQ(a.sites()[0].domain, b.sites()[0].domain);
}

}  // namespace
}  // namespace ixp::gen
