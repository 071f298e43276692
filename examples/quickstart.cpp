// Quickstart: build a small synthetic Internet, observe one week of
// sFlow samples at the IXP, and print what the vantage point saw.
//
//   ./quickstart
//
// This is the minimal end-to-end use of the library: a Study holds the
// world (InternetModel) and its Workload, week() pulls one week of
// sampled frames from the generator, VantagePoint is the measurement
// pipeline (filtering -> dissection -> HTTPS probing -> metadata) and
// ParallelAnalyzer feeds it the week in batches.
// Everything is deterministic: run it twice, or with more threads, and
// get the same numbers.
#include <iostream>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "util/format.hpp"

int main() {
  using namespace ixp;

  // 1. A small synthetic Internet (the test preset: ~800 ASes).
  const analysis::Study study{gen::ScaleConfig::test()};
  const gen::InternetModel& model = study.model();
  std::cout << "world: " << model.ases().size() << " ASes, "
            << model.prefixes().size() << " prefixes, "
            << model.servers().size() << " servers of "
            << model.orgs().size() << " organizations, "
            << model.ixp().member_count_at(45) << " IXP members\n";

  // 2. The measurement side only gets public databases + the fabric.
  core::VantagePoint vantage = study.vantage();

  // 3. Pull week 45 from the generator through the analysis engine; the
  //    fetcher is the active measurement (the servers' certificates).
  core::ParallelAnalyzer analyzer{vantage};  // one worker thread
  gen::WeekSource week = study.week(45);
  const core::WeeklyReport report =
      analyzer.analyze(45, week, study.fetcher(45));

  // 4. What did the IXP see?
  std::cout << "\nweek 45 at the vantage point:\n";
  std::cout << "  unique IPs:      " << util::with_thousands(report.peering_ips)
            << " across " << report.peering_ases << " ASes, "
            << report.peering_prefixes << " prefixes, "
            << report.peering_countries << " countries\n";
  std::cout << "  web server IPs:  " << util::with_thousands(report.server_ips)
            << " (" << report.dissection.https_server_ips << " HTTPS-confirmed)\n";
  std::cout << "  client IPs:      "
            << util::with_thousands(report.dissection.client_ips) << "\n";
  std::cout << "  weekly volume:   " << util::bytes(report.peering_bytes())
            << " (estimated from 1:16384 samples)\n";
  return 0;
}
