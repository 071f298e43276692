// heterogenization_study: reproduce the paper's §5 workflow for one
// organization — identify servers at the IXP, cluster them by
// administrative authority, and quantify how the org's infrastructure
// spreads across networks and how its traffic uses the IXP's links.
//
//   ./heterogenization_study [org=akamai]
//
// Known head orgs: akamai, google, cloudflare, ec2, cloudfront, hetzner,
// ovh, softlayer, limelight, edgecast, cdn77, ...
#include <iostream>
#include <string>

#include "analysis/attribution.hpp"
#include "analysis/heterogeneity.hpp"
#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const std::string org_name = argc > 1 ? argv[1] : "akamai";

  const analysis::Study study{gen::ScaleConfig::test()};
  const gen::InternetModel& model = study.model();
  const auto org = model.org_by_name(org_name);
  if (!org) {
    std::cerr << "unknown organization: " << org_name << "\n";
    return 1;
  }

  // Measurement pass for week 45.
  core::VantagePoint vantage = study.vantage();
  core::ParallelAnalyzer analyzer{vantage};
  gen::WeekSource week = study.week(45);
  const auto report = analyzer.analyze(45, week, study.fetcher(45));

  // Cluster all identified servers by organization (§5.1).
  std::vector<classify::ServerMetadata> metadata;
  for (const auto& obs : report.servers) metadata.push_back(obs.metadata);
  const core::OrgClusterer clusterer{model.dns_db(),
                                     dns::PublicSuffixList::builtin()};
  const auto clustering = clusterer.cluster(metadata);
  const auto view = analysis::build_heterogeneity(clustering, model.routing());

  const auto& domain = model.orgs()[*org].domain;
  std::cout << "organization " << org_name << " (" << domain.text() << "):\n";
  for (const auto& footprint : view.orgs) {
    if (footprint.authority != domain) continue;
    std::cout << "  clustered servers at the IXP: " << footprint.server_ips
              << " across " << footprint.ases << " ASes\n";
  }
  std::cout << "  ground-truth servers:         "
            << model.org_servers(*org).size() << " (incl. IXP-invisible)\n";

  // Link usage (§5.3): direct vs indirect member links.
  if (model.orgs()[*org].home_as) {
    std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org;
    for (const std::uint32_t s : model.org_servers(*org))
      server_org.emplace(model.servers()[s].addr, *org);
    std::unordered_map<std::uint32_t, net::Asn> home{
        {*org, model.ases()[*model.orgs()[*org].home_as].asn}};
    analysis::AttributionPass pass{model.ixp(), 45, std::move(server_org),
                                   std::move(home)};
    (void)study.workload().generate_week(
        45, [&](const sflow::FlowSample& s) { pass.observe(s); });
    std::cout << "  traffic not via own member link: "
              << util::percent(pass.indirect_share(*org), 1)
              << " (Akamai in the paper: 11.1%)\n";
    if (const auto* links = pass.links_of(*org)) {
      std::size_t all_indirect = 0;
      for (const auto& [member, usage] : *links)
        if (usage.direct_bytes == 0.0 && usage.indirect_bytes > 0.0)
          ++all_indirect;
      std::cout << "  members served exclusively via other links: "
                << all_indirect << " of " << links->size() << "\n";
    }
  } else {
    std::cout << "  (no own ASN — invisible to the AS-level view, like CDN77)\n";
  }
  return 0;
}
