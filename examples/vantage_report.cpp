// vantage_report: a paper-style weekly report for any week.
//
//   ./vantage_report [week=45] [volume=0.002]
//
// Prints Table-1-style visibility, the top countries and networks, the
// filter cascade, and the HTTPS funnel for the requested week, at the
// requested fraction of the paper's measured volumes.
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const int week = argc > 1 ? std::atoi(argv[1]) : 45;
  const double volume = argc > 2 ? std::atof(argv[2]) : 1.0 / 512.0;
  if (week < 35 || week > 51) {
    std::cerr << "week must be within the measurement period 35..51\n";
    return 1;
  }

  const gen::InternetModel model{gen::ScaleConfig::bench(volume)};
  const gen::Workload workload{model};
  std::vector<net::Asn> members;
  for (const auto* m : model.ixp().members_at(week)) members.push_back(m->asn);
  const auto locality = model.as_graph().classify(members);

  core::VantagePoint vantage{
      model.ixp(),   model.routing(),  model.geo_db(), locality,
      model.dns_db(), dns::PublicSuffixList::builtin(), model.root_store()};
  std::vector<sflow::FlowSample> samples;
  workload.generate_week(
      week, [&](const sflow::FlowSample& s) { samples.push_back(s); });
  core::ParallelAnalyzer analyzer{vantage};
  ingest::SpanSource source{samples, core::ParallelOptions{}.batch_size};
  const auto report =
      analyzer.analyze(week, source, [&](net::Ipv4Addr addr, int times) {
        return model.fetch_chains(addr, times, week);
      });

  std::cout << "=== week " << week << " @ volume " << volume << " ===\n\n";

  util::Table visibility{"Visibility"};
  visibility.header({"", "IPs", "ASes", "prefixes", "countries"});
  visibility.row({"peering", util::with_thousands(report.peering_ips),
                  util::with_thousands(report.peering_ases),
                  util::with_thousands(report.peering_prefixes),
                  std::to_string(report.peering_countries)});
  visibility.row({"server", util::with_thousands(report.server_ips),
                  util::with_thousands(report.server_ases),
                  util::with_thousands(report.server_prefixes),
                  std::to_string(report.server_countries)});
  visibility.print(std::cout);

  const auto& funnel = report.https_funnel;
  std::cout << "\nHTTPS funnel: " << funnel.candidates << " candidates -> "
            << funnel.responded << " responded -> " << funnel.confirmed
            << " confirmed\n";

  std::vector<std::pair<std::string, double>> countries;
  for (const auto& [code, tally] : report.by_country)
    countries.push_back({code.to_string(), tally.bytes});
  std::sort(countries.begin(), countries.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::cout << "\ntop countries by traffic: ";
  for (std::size_t i = 0; i < std::min<std::size_t>(8, countries.size()); ++i)
    std::cout << countries[i].first << " ";
  std::cout << "\n";

  double total_bytes = 0;
  double server_bytes = 0;
  for (const auto& obs : report.servers) server_bytes += obs.bytes;
  total_bytes = 2.0 * report.peering_bytes();
  std::cout << "server-related byte share (per-IP accounting): "
            << util::percent(server_bytes / total_bytes, 1) << "\n";
  return 0;
}
