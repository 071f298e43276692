#include "classify/metadata.hpp"

#include <gtest/gtest.h>

#include "support/probe_oracles.hpp"

namespace ixp::classify {
namespace {

using net::Ipv4Addr;

dns::DnsName name(const char* text) { return *dns::DnsName::parse(text); }

class MetadataTest : public ::testing::Test {
 protected:
  MetadataTest() : harvester_(db_, dns::PublicSuffixList::builtin()) {
    db_.add_ptr(Ipv4Addr{1, 1, 1, 1}, name("edge1.cdn.akamai.net"));
    db_.add_soa(name("akamai.net"), name("akamai.com"));
    db_.add_reverse_soa(Ipv4Addr{2, 2, 2, 2}, name("hoster.net"));
    db_.add_ptr(Ipv4Addr{4, 4, 4, 4}, name("srv.rir-managed.org"));
    db_.add_soa(name("rir-managed.org"), name("ripe.net"));
  }

  dns::ZoneDatabase db_;
  MetadataHarvester harvester_;
};

TEST_F(MetadataTest, HarvestsHostnameAndSoa) {
  const auto md = harvester_.harvest(Ipv4Addr{1, 1, 1, 1}, {}, nullptr);
  ASSERT_TRUE(md.hostname);
  EXPECT_EQ(md.hostname->text(), "edge1.cdn.akamai.net");
  ASSERT_TRUE(md.soa_authority);
  EXPECT_EQ(md.soa_authority->text(), "akamai.com");
  EXPECT_TRUE(md.has_dns());
  EXPECT_TRUE(md.has_any());
}

TEST_F(MetadataTest, ReverseSoaWithoutHostname) {
  const auto md = harvester_.harvest(Ipv4Addr{2, 2, 2, 2}, {}, nullptr);
  EXPECT_FALSE(md.hostname);
  ASSERT_TRUE(md.soa_authority);
  EXPECT_EQ(md.soa_authority->text(), "hoster.net");
}

TEST_F(MetadataTest, NothingKnown) {
  const auto md = harvester_.harvest(Ipv4Addr{3, 3, 3, 3}, {}, nullptr);
  EXPECT_FALSE(md.has_dns());
  EXPECT_FALSE(md.has_any());
}

TEST_F(MetadataTest, RirAuthoritiesCleaned) {
  const auto md = harvester_.harvest(Ipv4Addr{4, 4, 4, 4}, {}, nullptr);
  ASSERT_TRUE(md.hostname);          // hostname survives
  EXPECT_FALSE(md.soa_authority);    // ripe.net authority removed
}

TEST_F(MetadataTest, UriCleaningDropsInvalidHosts) {
  const std::vector<std::string> hosts{
      "www.example.com",   // valid
      "203.0.113.9",       // IP literal -> dropped
      "intranet",          // single label -> dropped
      "server.unknowntld", // no registrable domain -> dropped
      "www.example.com",   // duplicate -> collapsed
  };
  const auto md = harvester_.harvest(Ipv4Addr{9, 9, 9, 9}, hosts, nullptr);
  ASSERT_EQ(md.uris.size(), 1u);
  EXPECT_EQ(md.uris[0].host().text(), "www.example.com");
  EXPECT_TRUE(md.has_uri());
}

TEST_F(MetadataTest, CertificateNamesExtracted) {
  x509::Certificate leaf;
  leaf.subject = name("www.shop.de");
  leaf.alt_names = {name("shop.de"), name("cdn.shop.de")};
  leaf.key_usages = {x509::KeyUsage::kServerAuth};
  const x509::CertificateChain chain{{leaf}};
  const auto md = harvester_.harvest(Ipv4Addr{8, 8, 8, 8}, {}, &chain);
  EXPECT_EQ(md.cert_names.size(), 3u);
  EXPECT_TRUE(md.has_cert());
}

TEST_F(MetadataTest, CoverageAccumulates) {
  MetadataCoverage coverage;
  coverage.add(harvester_.harvest(Ipv4Addr{1, 1, 1, 1}, {}, nullptr));
  coverage.add(harvester_.harvest(Ipv4Addr{3, 3, 3, 3}, {}, nullptr));
  EXPECT_EQ(coverage.servers, 2u);
  EXPECT_EQ(coverage.with_dns, 1u);
  EXPECT_EQ(coverage.with_any, 1u);
}

TEST(MetadataHarvesterStatics, RirDetection) {
  EXPECT_TRUE(is_rir_authority(*dns::DnsName::parse("ripe.net")));
  EXPECT_TRUE(is_rir_authority(*dns::DnsName::parse("arin.net")));
  EXPECT_FALSE(is_rir_authority(*dns::DnsName::parse("akamai.com")));
  EXPECT_FALSE(is_rir_authority(*dns::DnsName::parse("sub.ripe.net")));
}

}  // namespace
}  // namespace ixp::classify
