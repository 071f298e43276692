// Quickstart: build a small synthetic Internet, observe one week of
// sFlow samples at the IXP, and print what the vantage point saw.
//
//   ./quickstart
//
// This is the minimal end-to-end use of the library: InternetModel is the
// world, Workload streams one week of sampled frames, VantagePoint is the
// measurement pipeline (filtering -> dissection -> HTTPS probing ->
// metadata) and ParallelAnalyzer feeds it the week in batches.
// Everything is deterministic: run it twice, or with more threads, and
// get the same numbers.
#include <iostream>

#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "util/format.hpp"

int main() {
  using namespace ixp;

  // 1. A small synthetic Internet (the test preset: ~800 ASes).
  const gen::InternetModel model{gen::ScaleConfig::test()};
  const gen::Workload workload{model};
  std::cout << "world: " << model.ases().size() << " ASes, "
            << model.prefixes().size() << " prefixes, "
            << model.servers().size() << " servers of "
            << model.orgs().size() << " organizations, "
            << model.ixp().member_count_at(45) << " IXP members\n";

  // 2. The measurement side only gets public databases + the fabric.
  std::vector<net::Asn> members;
  for (const auto* m : model.ixp().members_at(45)) members.push_back(m->asn);
  const auto locality = model.as_graph().classify(members);
  core::VantagePoint vantage{
      model.ixp(),   model.routing(),  model.geo_db(), locality,
      model.dns_db(), dns::PublicSuffixList::builtin(), model.root_store()};

  // 3. Record week 45 and run it through the analysis engine.
  std::vector<sflow::FlowSample> samples;
  workload.generate_week(
      45, [&](const sflow::FlowSample& sample) { samples.push_back(sample); });
  core::ParallelAnalyzer analyzer{vantage};  // one worker thread
  ingest::SpanSource source{samples, core::ParallelOptions{}.batch_size};
  const core::WeeklyReport report = analyzer.analyze(
      45, source, [&](net::Ipv4Addr addr, int times) {
        return model.fetch_chains(addr, times, 45);  // active measurement
      });

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
