#include "analysis/attribution.hpp"

#include <gtest/gtest.h>

namespace ixp::analysis {
namespace {

using net::Asn;
using net::Ipv4Addr;
using sflow::MacAddr;

constexpr std::uint32_t kOrgAkamai = 1;

class AttributionTest : public ::testing::Test {
 protected:
  AttributionTest() {
    for (const std::uint32_t asn : {100u, 200u, 300u}) {
      fabric::Member m;
      m.asn = Asn{asn};
      ixp_.add_member(m);
    }
  }

  sflow::FlowSample sample(Ipv4Addr src, Ipv4Addr dst, MacAddr src_mac,
                           MacAddr dst_mac, std::uint16_t len = 1000) const {
    sflow::FrameSpec spec;
    spec.src_mac = src_mac;
    spec.dst_mac = dst_mac;
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.src_port = 80;
    spec.dst_port = 45000;
    spec.frame_length = len;
    sflow::FlowSample s;
    s.sampling_rate = 1;  // expanded bytes == frame length, easier math
    s.frame = sflow::build_tcp_frame(spec, {}, 100);
    s.frame.frame_length = len;
    return s;
  }

  MacAddr mac(std::uint32_t asn) const {
    return fabric::Ixp::port_mac_for(Asn{asn});
  }

  AttributionPass make() {
    // One Akamai server inside its own AS100 and one deployed in AS300.
    std::unordered_map<Ipv4Addr, std::uint32_t> server_org{
        {Ipv4Addr{1, 1, 1, 1}, kOrgAkamai},
        {Ipv4Addr{3, 3, 3, 3}, kOrgAkamai},
    };
    std::unordered_map<std::uint32_t, Asn> org_home{{kOrgAkamai, Asn{100}}};
    return AttributionPass{ixp_, 45, std::move(server_org), std::move(org_home)};
  }

  fabric::Ixp ixp_;
};

TEST_F(AttributionTest, ServerShareCountsOnlyServerFlows) {
  auto pass = make();
  // Server flow: 1000 bytes; background flow: 500 bytes.
  pass.observe(sample(Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{9, 9, 9, 9}, mac(100),
                      mac(200), 1000));
  pass.observe(sample(Ipv4Addr{8, 8, 8, 8}, Ipv4Addr{9, 9, 9, 9}, mac(100),
                      mac(200), 500));
  EXPECT_DOUBLE_EQ(pass.peering_bytes(), 1500.0);
  EXPECT_DOUBLE_EQ(pass.server_bytes(), 1000.0);
  EXPECT_DOUBLE_EQ(pass.server_share(), 1000.0 / 1500.0);
  EXPECT_DOUBLE_EQ(pass.org_bytes().at(kOrgAkamai), 1000.0);
}

TEST_F(AttributionTest, DirectLinkAttribution) {
  auto pass = make();
  // Akamai server in AS100 (home) -> member 200: direct.
  pass.observe(sample(Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{9, 9, 9, 9}, mac(100),
                      mac(200), 1000));
  const auto* links = pass.links_of(kOrgAkamai);
  ASSERT_NE(links, nullptr);
  const auto& usage = links->at(Asn{200});
  EXPECT_DOUBLE_EQ(usage.direct_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(usage.indirect_bytes, 0.0);
  EXPECT_DOUBLE_EQ(usage.direct_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(pass.indirect_share(kOrgAkamai), 0.0);
}

TEST_F(AttributionTest, IndirectLinkAttribution) {
  auto pass = make();
  // Akamai server hosted in AS300 -> member 200: indirect (server-side
  // port is 300, not Akamai's own 100).
  pass.observe(sample(Ipv4Addr{3, 3, 3, 3}, Ipv4Addr{9, 9, 9, 9}, mac(300),
                      mac(200), 800));
  const auto& usage = pass.links_of(kOrgAkamai)->at(Asn{200});
  EXPECT_DOUBLE_EQ(usage.indirect_bytes, 800.0);
  EXPECT_DOUBLE_EQ(pass.indirect_share(kOrgAkamai), 1.0);
}

TEST_F(AttributionTest, MixedUsageComputesShares) {
  auto pass = make();
  pass.observe(sample(Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{9, 9, 9, 9}, mac(100),
                      mac(200), 900));
  pass.observe(sample(Ipv4Addr{3, 3, 3, 3}, Ipv4Addr{9, 9, 9, 9}, mac(300),
                      mac(200), 100));
  EXPECT_NEAR(pass.indirect_share(kOrgAkamai), 0.1, 1e-12);
  const auto& usage = pass.links_of(kOrgAkamai)->at(Asn{200});
  EXPECT_NEAR(usage.direct_fraction(), 0.9, 1e-12);
}

TEST_F(AttributionTest, RequestDirectionAlsoAttributed) {
  auto pass = make();
  // Client -> server direction: server on the dst side.
  pass.observe(sample(Ipv4Addr{9, 9, 9, 9}, Ipv4Addr{1, 1, 1, 1}, mac(200),
                      mac(100), 400));
  EXPECT_DOUBLE_EQ(pass.server_bytes(), 400.0);
  const auto& usage = pass.links_of(kOrgAkamai)->at(Asn{200});
  EXPECT_DOUBLE_EQ(usage.direct_bytes, 400.0);
}

TEST_F(AttributionTest, IngressAccounting) {
  auto pass = make();
  pass.observe(sample(Ipv4Addr{3, 3, 3, 3}, Ipv4Addr{9, 9, 9, 9}, mac(300),
                      mac(200), 700));
  EXPECT_DOUBLE_EQ(pass.ingress_server_bytes().at(Asn{300}), 700.0);
  EXPECT_EQ(pass.ingress_server_ips(Asn{300}), 1u);
  EXPECT_EQ(pass.ingress_server_ips(Asn{100}), 0u);
}

TEST_F(AttributionTest, NonMemberSamplesIgnored) {
  auto pass = make();
  pass.observe(sample(Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{9, 9, 9, 9},
                      MacAddr::from_id(0xBAD), mac(200), 1000));
  EXPECT_DOUBLE_EQ(pass.peering_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(pass.server_bytes(), 0.0);
}

TEST_F(AttributionTest, ServerToServerCountsOnlySamplesWithTwoServers) {
  auto pass = make();
  // Server <-> server: counts in both tallies, once.
  pass.observe(sample(Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{3, 3, 3, 3}, mac(100),
                      mac(300), 1000));
  EXPECT_DOUBLE_EQ(pass.server_bytes(), 1000.0);
  EXPECT_DOUBLE_EQ(pass.server_to_server_bytes(), 1000.0);
  // Server <-> client: only in server_bytes().
  pass.observe(sample(Ipv4Addr{9, 9, 9, 9}, Ipv4Addr{3, 3, 3, 3}, mac(200),
                      mac(300), 300));
  EXPECT_DOUBLE_EQ(pass.server_bytes(), 1300.0);
  EXPECT_DOUBLE_EQ(pass.server_to_server_bytes(), 1000.0);
  // No server on either side: in neither.
  pass.observe(sample(Ipv4Addr{8, 8, 8, 8}, Ipv4Addr{9, 9, 9, 9}, mac(100),
                      mac(200), 500));
  EXPECT_DOUBLE_EQ(pass.peering_bytes(), 1800.0);
  EXPECT_DOUBLE_EQ(pass.server_bytes(), 1300.0);
  EXPECT_DOUBLE_EQ(pass.server_to_server_bytes(), 1000.0);
}

TEST_F(AttributionTest, UnknownOrgHasNoLinks) {
  auto pass = make();
  EXPECT_EQ(pass.links_of(77), nullptr);
  EXPECT_DOUBLE_EQ(pass.indirect_share(77), 0.0);
}

}  // namespace
}  // namespace ixp::analysis
