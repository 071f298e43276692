// blindspot_audit: §3.3's "know what you don't know" workflow — measure
// the site-list recovery from IXP URIs, then sweep the uncovered sites
// through the usable open resolvers and classify what the IXP missed.
//
//   ./blindspot_audit [per_site_resolvers=8]
#include <cstdlib>
#include <iostream>
#include <unordered_set>

#include "analysis/blind_spots.hpp"
#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "dns/public_suffix.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const std::size_t per_site = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;

  const analysis::Study study{gen::ScaleConfig::test()};
  const gen::InternetModel& model = study.model();
  core::VantagePoint vantage = study.vantage();
  core::ParallelAnalyzer analyzer{vantage};
  gen::WeekSource week = study.week(45);
  const auto report = analyzer.analyze(45, week, study.fetcher(45));

  // Domains recovered from the payload URIs.
  const auto& psl = dns::PublicSuffixList::builtin();
  std::unordered_set<dns::DnsName> recovered;
  std::unordered_set<net::Ipv4Addr> ixp_servers;
  for (const auto& obs : report.servers) {
    ixp_servers.insert(obs.addr);
    for (const auto& uri : obs.metadata.uris) {
      if (const auto domain = uri.authority(psl)) recovered.insert(*domain);
    }
  }

  const std::size_t sites = model.sites().size();
  for (const auto& [top, label] :
       {std::pair<std::size_t, const char*>{sites / 100, "top 1%"},
        {sites / 10, "top 10%"},
        {sites, "all sites"}}) {
    const auto recovery = analysis::alexa_recovery(model, top, recovered);
    std::cout << "site recovery, " << label << ": "
              << util::percent(recovery.share(), 1) << " (" << recovery.recovered
              << "/" << recovery.considered << ")\n";
  }

  // Resolver filtering + sweep.
  dns::ZoneDatabase probe_db;
  const auto probe = *dns::DnsName::parse("probe.audit.net");
  probe_db.add_a(probe, net::Ipv4Addr{192, 0, 2, 1});
  const auto usable = model.resolvers().usable_resolvers(probe_db, probe);
  std::cout << "\nusable resolvers: " << usable.size() << " of "
            << model.resolvers().size() << " candidates, in "
            << dns::ResolverPopulation::distinct_ases(usable) << " ASes\n";

  util::Rng rng{2026};
  const auto sweep = analysis::resolver_sweep(model, usable, recovered,
                                              ixp_servers, per_site, 45, rng);
  std::cout << "sweep: " << sweep.queried_sites << " uncovered sites -> "
            << sweep.discovered_ips << " server IPs ("
            << sweep.already_seen_at_ixp << " already at IXP, "
            << sweep.unseen_at_ixp << " unseen)\n";
  static const char* kReason[] = {"visible-but-unidentified", "private cluster",
                                  "far region", "error handler", "small far org"};
  for (std::size_t r = 0; r < 5; ++r) {
    if (sweep.unseen_by_reason[r] > 0)
      std::cout << "  " << kReason[r] << ": " << sweep.unseen_by_reason[r] << "\n";
  }
  return 0;
}
