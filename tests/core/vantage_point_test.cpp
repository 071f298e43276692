// VantagePoint unit tests on a hand-built two-member world — no synthetic
// Internet involved, every expectation computed by hand.
#include "core/vantage_point.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <unordered_map>

namespace ixp::core {
namespace {

using LocalityMap = std::unordered_map<net::Asn, net::Locality>;

// The vantage point keeps a pointer to its locality map: a temporary map
// must not compile, an lvalue one must.
static_assert(!std::is_constructible_v<
              VantagePoint, const fabric::Ixp&, const net::RoutingTable&,
              const geo::GeoDatabase&, LocalityMap&&, const dns::ZoneDatabase&,
              const dns::PublicSuffixList&, const x509::RootStore&>);
static_assert(std::is_constructible_v<
              VantagePoint, const fabric::Ixp&, const net::RoutingTable&,
              const geo::GeoDatabase&, LocalityMap&, const dns::ZoneDatabase&,
              const dns::PublicSuffixList&, const x509::RootStore&>);

using net::Asn;
using net::Ipv4Addr;
using net::Ipv4Prefix;

class VantagePointTest : public ::testing::Test {
 protected:
  VantagePointTest() {
    fabric::Member a;
    a.asn = Asn{100};
    ixp_.add_member(a);
    fabric::Member b;
    b.asn = Asn{200};
    ixp_.add_member(b);

    routing_.announce(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, Asn{100});
    routing_.announce(Ipv4Prefix{Ipv4Addr{20, 0, 0, 0}, 8}, Asn{200});
    geo_.assign(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, geo::CountryCode{'D', 'E'});
    geo_.assign(Ipv4Prefix{Ipv4Addr{20, 0, 0, 0}, 8}, geo::CountryCode{'U', 'S'});
    locality_[Asn{100}] = net::Locality::kMember;
    locality_[Asn{200}] = net::Locality::kNear;

    dns_.add_ptr(Ipv4Addr{10, 0, 0, 1}, *dns::DnsName::parse("s1.example.com"));
    dns_.add_soa(*dns::DnsName::parse("example.com"),
                 *dns::DnsName::parse("example.com"));
    roots_.trust("root");
  }

  VantagePoint make() {
    return VantagePoint{ixp_,  routing_, geo_,
                        locality_, dns_,  dns::PublicSuffixList::builtin(),
                        roots_};
  }

  sflow::FlowSample sample(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport,
                           std::uint16_t dport, const char* payload,
                           std::uint16_t wire_len) const {
    sflow::FrameSpec spec;
    spec.src_mac = fabric::Ixp::port_mac_for(Asn{100});
    spec.dst_mac = fabric::Ixp::port_mac_for(Asn{200});
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.src_port = sport;
    spec.dst_port = dport;
    spec.frame_length = wire_len;
    const std::size_t len = std::strlen(payload);
    std::vector<std::byte> data(len);
    std::ranges::copy(std::as_bytes(std::span{payload, len}), data.begin());
    sflow::FlowSample s;
    s.sampling_rate = 1000;  // expanded = wire_len * 1000
    s.frame = sflow::build_tcp_frame(spec, data, std::max<std::size_t>(len, 1));
    s.frame.frame_length = wire_len;
    return s;
  }

  /// Observes one sample at the session's next stream position.
  static void observe(WeekSession& session, const sflow::FlowSample& flow) {
    session.observe_batch({&flow, 1});
  }

  static std::vector<x509::CertificateChain> no_fetch(Ipv4Addr, int) {
    return {};
  }

  fabric::Ixp ixp_;
  net::RoutingTable routing_;
  geo::GeoDatabase geo_;
  std::unordered_map<Asn, net::Locality> locality_;
  dns::ZoneDatabase dns_;
  x509::RootStore roots_;
};

TEST_F(VantagePointTest, AggregatesOneServerFlow) {
  auto vp = make();
  WeekSession session = vp.open_week(45);
  // Server 10.0.0.1 (DE, AS100) answers client 20.0.0.9 (US, AS200).
  observe(session, sample(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{20, 0, 0, 9}, 80,
                          40000, "HTTP/1.1 200 OK\r\nServer: t\r\n", 1000));
  const auto report = session.finish(no_fetch);

  EXPECT_EQ(report.week, 45);
  EXPECT_EQ(report.peering_ips, 2u);
  EXPECT_EQ(report.peering_ases, 2u);
  EXPECT_EQ(report.peering_prefixes, 2u);
  EXPECT_EQ(report.peering_countries, 2u);
  ASSERT_EQ(report.server_ips, 1u);
  EXPECT_EQ(report.server_ases, 1u);
  EXPECT_EQ(report.server_countries, 1u);

  const auto& server = report.servers.front();
  EXPECT_EQ(server.addr, Ipv4Addr(10, 0, 0, 1));
  EXPECT_TRUE(server.http);
  EXPECT_FALSE(server.https);
  EXPECT_EQ(server.asn, Asn{100});
  EXPECT_EQ(server.country, (geo::CountryCode{'D', 'E'}));
  // Metadata harvested through the zone database.
  ASSERT_TRUE(server.metadata.hostname);
  EXPECT_EQ(server.metadata.hostname->text(), "s1.example.com");
  ASSERT_TRUE(server.metadata.soa_authority);
  EXPECT_EQ(server.metadata.soa_authority->text(), "example.com");

  // Byte accounting: 1000 bytes x rate 1000 on each endpoint.
  EXPECT_DOUBLE_EQ(report.by_country.at(geo::CountryCode{'D', 'E'}).bytes,
                   1'000'000.0);
  EXPECT_DOUBLE_EQ(report.by_country.at(geo::CountryCode{'D', 'E'}).server_bytes,
                   1'000'000.0);
  EXPECT_EQ(report.by_as.at(Asn{100}).server_ips, 1u);
  EXPECT_EQ(report.by_as.at(Asn{200}).server_ips, 0u);

  // Locality: DE/AS100 is A(L) index 0, US/AS200 is A(M) index 1.
  EXPECT_EQ(report.peering_locality[0].ips, 1u);
  EXPECT_EQ(report.peering_locality[1].ips, 1u);
  EXPECT_EQ(report.server_locality[0].ips, 1u);
  EXPECT_EQ(report.server_locality[1].ips, 0u);
}

TEST_F(VantagePointTest, HttpsFunnelThroughFetcher) {
  auto vp = make();
  WeekSession session = vp.open_week(45);
  observe(session, sample(Ipv4Addr{10, 0, 0, 2}, Ipv4Addr{20, 0, 0, 9}, 443,
                          40000, "", 1200));
  const auto report = session.finish([](Ipv4Addr addr, int times) {
    std::vector<x509::CertificateChain> fetches;
    if (addr != Ipv4Addr{10, 0, 0, 2}) return fetches;
    x509::Certificate leaf;
    leaf.subject = *dns::DnsName::parse("www.example.com");
    leaf.key_usages = {x509::KeyUsage::kServerAuth};
    leaf.subject_key = "k";
    leaf.issuer_key = "root";
    leaf.not_after = 100000;
    for (int i = 0; i < times; ++i)
      fetches.push_back(x509::CertificateChain{{leaf}});
    return fetches;
  });
  EXPECT_EQ(report.https_funnel.candidates, 1u);
  EXPECT_EQ(report.https_funnel.responded, 1u);
  EXPECT_EQ(report.https_funnel.confirmed, 1u);
  ASSERT_EQ(report.server_ips, 1u);
  EXPECT_TRUE(report.servers.front().https);
  // Certificate names flow into the metadata.
  EXPECT_EQ(report.servers.front().metadata.cert_names.size(), 1u);
}

TEST_F(VantagePointTest, EachSessionStartsFresh) {
  auto vp = make();
  {
    WeekSession session = vp.open_week(45);
    observe(session, sample(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{20, 0, 0, 9}, 80,
                            40000, "HTTP/1.1 200 OK\r\n", 800));
    (void)session.finish(no_fetch);
  }
  WeekSession session = vp.open_week(46);
  const auto report = session.finish(no_fetch);
  EXPECT_EQ(report.week, 46);
  EXPECT_EQ(report.peering_ips, 0u);
  EXPECT_EQ(report.server_ips, 0u);
  EXPECT_EQ(report.filters.total_samples(), 0u);
}

// The minimal one-sample week through the session API.
TEST_F(VantagePointTest, SingleSampleWeekProducesReport) {
  auto vp = make();
  WeekSession session = vp.open_week(45);
  observe(session, sample(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{20, 0, 0, 9}, 80,
                          40000, "HTTP/1.1 200 OK\r\n", 1000));
  const auto report = session.finish(no_fetch);
  EXPECT_EQ(report.week, 45);
  EXPECT_EQ(report.peering_ips, 2u);
  EXPECT_EQ(report.server_ips, 1u);
}

TEST_F(VantagePointTest, UnroutedIpStillCountsAsPeeringIp) {
  auto vp = make();
  WeekSession session = vp.open_week(45);
  // 30.0.0.0/8 is not in the routing table or geo database.
  observe(session, sample(Ipv4Addr{30, 0, 0, 1}, Ipv4Addr{20, 0, 0, 9}, 12345,
                          22, "", 500));
  const auto report = session.finish(no_fetch);
  EXPECT_EQ(report.peering_ips, 2u);
  EXPECT_EQ(report.peering_ases, 1u);       // only the routed side
  EXPECT_EQ(report.peering_countries, 1u);  // only the located side
}

}  // namespace
}  // namespace ixp::core
