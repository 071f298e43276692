// End-to-end pipeline integration: synthetic Internet -> weekly sample
// stream -> filter cascade -> dissection -> HTTPS probing -> metadata ->
// clustering -> attribution. Asserts the paper's *shape* invariants at
// test scale (loose bounds; exact reproduction runs at bench scale).
#include <gtest/gtest.h>

#include "analysis/attribution.hpp"
#include "analysis/heterogeneity.hpp"
#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"

namespace ixp {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new analysis::Study{gen::ScaleConfig::test()};
    core::VantagePoint vp = study_->vantage();
    core::ParallelAnalyzer analyzer{vp};
    gen::WeekSource week = study_->week(45);
    report_ = new core::WeeklyReport{
        analyzer.analyze(45, week, study_->fetcher(45))};
    truth_ = new gen::WeeklyTruth{week.truth()};
  }

  static void TearDownTestSuite() {
    delete report_;
    delete truth_;
    delete study_;
  }

  static analysis::Study* study_;
  static gen::WeeklyTruth* truth_;
  static core::WeeklyReport* report_;
};

analysis::Study* PipelineTest::study_ = nullptr;
gen::WeeklyTruth* PipelineTest::truth_ = nullptr;
core::WeeklyReport* PipelineTest::report_ = nullptr;

TEST_F(PipelineTest, FilterSharesMatchFigure1) {
  const auto& f = report_->filters;
  const double total = static_cast<double>(f.total_samples());
  EXPECT_NEAR(f.of(classify::TrafficClass::kNonIpv4) / total, 0.004, 0.002);
  EXPECT_NEAR(f.of(classify::TrafficClass::kNonMemberOrLocal) / total, 0.006,
              0.004);
  EXPECT_NEAR(f.of(classify::TrafficClass::kNonTcpUdp) / total, 0.0045, 0.002);
  EXPECT_GT(f.of(classify::TrafficClass::kPeering) / total, 0.985);
}

TEST_F(PipelineTest, TcpUdpSplitNearPaper) {
  const auto& f = report_->filters;
  const double tcp_share = static_cast<double>(f.tcp_bytes) /
                           static_cast<double>(f.tcp_bytes + f.udp_bytes);
  EXPECT_NEAR(tcp_share, 0.82, 0.04);
}

TEST_F(PipelineTest, FilterCountsMatchGeneratorTruth) {
  const auto& f = report_->filters;
  EXPECT_EQ(f.of(classify::TrafficClass::kNonIpv4), truth_->non_ipv4_samples);
  EXPECT_EQ(f.of(classify::TrafficClass::kNonMemberOrLocal),
            truth_->non_member_or_local_samples);
  EXPECT_EQ(f.of(classify::TrafficClass::kNonTcpUdp),
            truth_->non_tcp_udp_samples);
  EXPECT_EQ(f.of(classify::TrafficClass::kPeering), truth_->peering_samples);
}

TEST_F(PipelineTest, VisibilityRowsArePlausible) {
  EXPECT_GT(report_->peering_ips, 10'000u);
  EXPECT_GT(report_->peering_ases, study_->model().config().as_count * 9 / 10);
  EXPECT_GT(report_->peering_prefixes, study_->model().config().prefix_count / 2);
  EXPECT_GT(report_->peering_countries, 80u);
  EXPECT_LT(report_->server_ips, report_->peering_ips);
  EXPECT_GT(report_->server_ips, 500u);
  EXPECT_LT(report_->server_countries, report_->peering_countries);
}

TEST_F(PipelineTest, IdentifiedServersAreRealServers) {
  // No false positives: every identified server IP is a model server.
  std::size_t checked = 0;
  for (const auto& obs : report_->servers) {
    const auto index = study_->model().server_by_addr(obs.addr);
    ASSERT_TRUE(index) << obs.addr.to_string();
    EXPECT_TRUE(study_->model().servers()[*index].visible());
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(PipelineTest, MostActiveServersAreIdentified) {
  const auto active = study_->workload().active_visible_servers(45);
  EXPECT_GT(static_cast<double>(report_->server_ips),
            0.35 * static_cast<double>(active.size()));
}

TEST_F(PipelineTest, HttpsFunnelShapeHolds) {
  const auto& funnel = report_->https_funnel;
  EXPECT_GT(funnel.candidates, funnel.responded);
  EXPECT_GT(funnel.responded, funnel.confirmed);
  EXPECT_GT(funnel.confirmed, 0u);
  // Roughly half of responders pass all checks (paper: 500K -> 250K).
  const double pass_rate = static_cast<double>(funnel.confirmed) /
                           static_cast<double>(funnel.responded);
  EXPECT_NEAR(pass_rate, 0.5, 0.15);
}

TEST_F(PipelineTest, ConfirmedHttpsAreTrueHttpsServers) {
  for (const auto& obs : report_->servers) {
    if (!obs.https) continue;
    const auto index = study_->model().server_by_addr(obs.addr);
    ASSERT_TRUE(index);
    EXPECT_EQ(study_->model().servers()[*index].tls, gen::TlsBehavior::kValidStable);
  }
}

TEST_F(PipelineTest, MetadataCoverageNearPaper) {
  const auto& mc = report_->metadata_coverage;
  const double n = static_cast<double>(mc.servers);
  EXPECT_NEAR(mc.with_dns / n, 0.717, 0.08);
  EXPECT_NEAR(mc.with_uri / n, 0.238, 0.09);
  EXPECT_NEAR(mc.with_cert / n, 0.177, 0.08);
  EXPECT_NEAR(mc.with_any / n, 0.819, 0.08);
}

TEST_F(PipelineTest, LocalityIpSharesNearPaper) {
  double total_ips = 0;
  for (const auto& tally : report_->peering_locality) total_ips += tally.ips;
  EXPECT_NEAR(report_->peering_locality[0].ips / total_ips, 0.423, 0.10);
  EXPECT_NEAR(report_->peering_locality[1].ips / total_ips, 0.450, 0.10);
  EXPECT_NEAR(report_->peering_locality[2].ips / total_ips, 0.127, 0.08);
}

TEST_F(PipelineTest, ClusteringStepsAndAccuracy) {
  // Harvested metadata -> clustering -> validate against ground truth.
  std::vector<classify::ServerMetadata> metadata;
  metadata.reserve(report_->servers.size());
  for (const auto& obs : report_->servers) metadata.push_back(obs.metadata);

  const core::OrgClusterer clusterer{study_->model().dns_db(),
                                     dns::PublicSuffixList::builtin()};
  const auto clustering = clusterer.cluster(metadata);
  EXPECT_GT(clustering.clustered(), metadata.size() * 6 / 10);
  EXPECT_GT(clustering.step_share(1), 0.5);   // paper: 78.7%
  EXPECT_GT(clustering.step_counts[2], 0u);   // paper: 17.4%

  // Validation: assigned authority equals the admin org's domain.
  std::size_t correct = 0;
  std::size_t wrong = 0;
  for (const auto& [addr, assignment] : clustering.by_server) {
    if (assignment.step == 0) continue;
    const auto index = study_->model().server_by_addr(addr);
    ASSERT_TRUE(index);
    const auto& truth_org = study_->model().orgs()[study_->model().servers()[*index].org];
    (assignment.authority == truth_org.domain ? correct : wrong) += 1;
  }
  ASSERT_GT(correct + wrong, 0u);
  const double fp_rate =
      static_cast<double>(wrong) / static_cast<double>(correct + wrong);
  EXPECT_LT(fp_rate, 0.08);  // paper: < 3% at full scale
}

TEST_F(PipelineTest, AttributionServerShareAboveSeventyPercent) {
  std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org;
  for (const auto& obs : report_->servers) server_org.emplace(obs.addr, 0u);
  analysis::AttributionPass pass{study_->model().ixp(), 45, std::move(server_org), {}};
  (void)study_->workload().generate_week(
      45, [&](const sflow::FlowSample& s) { pass.observe(s); });
  EXPECT_GT(pass.server_share(), 0.55);
  EXPECT_LT(pass.server_share(), 0.95);
}

TEST_F(PipelineTest, AkamaiIndirectShareNearPaper) {
  const auto akamai = *study_->model().org_by_name("akamai");
  std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org;
  for (const std::uint32_t s : study_->model().org_servers(akamai))
    server_org.emplace(study_->model().servers()[s].addr, akamai);
  std::unordered_map<std::uint32_t, net::Asn> org_home{
      {akamai, study_->model().ases()[*study_->model().orgs()[akamai].home_as].asn}};
  analysis::AttributionPass pass{study_->model().ixp(), 45, std::move(server_org),
                                 std::move(org_home)};
  (void)study_->workload().generate_week(
      45, [&](const sflow::FlowSample& s) { pass.observe(s); });
  // Paper: 11.1% of Akamai traffic does not use the direct links.
  EXPECT_NEAR(pass.indirect_share(akamai), 0.111, 0.08);
}

}  // namespace
}  // namespace ixp
