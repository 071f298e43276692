#include <gtest/gtest.h>

#include "dns/public_suffix.hpp"
#include "support/probe_oracles.hpp"

namespace ixp::classify {
namespace {

using net::Ipv4Addr;

x509::CertificateChain valid_chain() {
  x509::Certificate leaf;
  leaf.subject = *dns::DnsName::parse("www.example.com");
  leaf.key_usages = {x509::KeyUsage::kServerAuth};
  leaf.subject_key = "leaf";
  leaf.issuer_key = "root";
  leaf.not_before = 0;
  leaf.not_after = 100000;
  return x509::CertificateChain{{leaf}};
}

class HttpsProberTest : public ::testing::Test {
 protected:
  HttpsProberTest() { roots_.trust("root"); }

  x509::RootStore roots_;
};

TEST_F(HttpsProberTest, ConfirmsValidStableServers) {
  HttpsProber prober{roots_, dns::PublicSuffixList::builtin(), 3};
  const Ipv4Addr good{1, 1, 1, 1};
  const Ipv4Addr silent{2, 2, 2, 2};
  const std::vector<Ipv4Addr> candidates{good, silent};
  ProbeFunnel funnel;
  const auto confirmed = prober.probe(
      candidates,
      [&](Ipv4Addr addr, int times) -> std::vector<x509::CertificateChain> {
        if (addr != good) return {};
        return std::vector<x509::CertificateChain>(
            static_cast<std::size_t>(times), valid_chain());
      },
      funnel);
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0], good);
  EXPECT_EQ(funnel.candidates, 2u);
  EXPECT_EQ(funnel.responded, 1u);
  EXPECT_EQ(funnel.confirmed, 1u);
}

TEST_F(HttpsProberTest, RejectsUnstableRole) {
  HttpsProber prober{roots_, dns::PublicSuffixList::builtin(), 2};
  const bool ok = prober.probe_one(Ipv4Addr{3, 3, 3, 3}, [](Ipv4Addr, int times) {
    std::vector<x509::CertificateChain> fetches;
    for (int i = 0; i < times; ++i) {
      auto chain = valid_chain();
      chain.certs[0].subject_key = "key-" + std::to_string(i);  // churn
      fetches.push_back(chain);
    }
    return fetches;
  });
  EXPECT_FALSE(ok);
}

TEST_F(HttpsProberTest, RejectsSquattersWithEmptyChains) {
  HttpsProber prober{roots_, dns::PublicSuffixList::builtin(), 3};
  ProbeFunnel funnel;
  const std::vector<Ipv4Addr> candidates{Ipv4Addr{4, 4, 4, 4}};
  const auto confirmed = prober.probe(
      candidates,
      [](Ipv4Addr, int times) {
        return std::vector<x509::CertificateChain>(
            static_cast<std::size_t>(times));  // responds, no X.509
      },
      funnel);
  EXPECT_TRUE(confirmed.empty());
  EXPECT_EQ(funnel.responded, 1u);  // counted as responding
  EXPECT_EQ(funnel.confirmed, 0u);
}

TEST_F(HttpsProberTest, RejectsExpiredCertificates) {
  HttpsProber prober{roots_, dns::PublicSuffixList::builtin(), 2};
  const bool ok = prober.probe_one(Ipv4Addr{5, 5, 5, 5}, [](Ipv4Addr, int times) {
    auto chain = valid_chain();
    chain.certs[0].not_after = 1;  // expired long before fetch time
    return std::vector<x509::CertificateChain>(
        static_cast<std::size_t>(times), chain);
  });
  EXPECT_FALSE(ok);
}

TEST_F(HttpsProberTest, NoResponseIsNotConfirmed) {
  HttpsProber prober{roots_, dns::PublicSuffixList::builtin(), 3};
  EXPECT_FALSE(prober.probe_one(Ipv4Addr{6, 6, 6, 6},
                                [](Ipv4Addr, int) { return std::vector<x509::CertificateChain>{}; }));
}

}  // namespace
}  // namespace ixp::classify
