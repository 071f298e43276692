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

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
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

  const analysis::Study study{gen::ScaleConfig::bench(volume)};
  core::VantagePoint vantage = study.vantage();
  core::ParallelAnalyzer analyzer{vantage};
  gen::WeekSource source = study.week(week);
  const auto report = analyzer.analyze(week, source, study.fetcher(week));

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
