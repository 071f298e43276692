// churn_monitor: §4's longitudinal view — track server IPs across a range
// of weeks and report the stable / recurrent / fresh pools week by week.
//
//   ./churn_monitor [first=35] [last=43]
#include <cstdlib>
#include <iostream>

#include "analysis/churn_tracker.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const int first = argc > 1 ? std::atoi(argv[1]) : 35;
  const int last = argc > 2 ? std::atoi(argv[2]) : 43;
  if (first < 35 || last > 51 || last < first) {
    std::cerr << "usage: churn_monitor [first>=35] [last<=51]\n";
    return 1;
  }

  const gen::InternetModel model{gen::ScaleConfig::test()};
  const gen::Workload workload{model};
  std::vector<net::Asn> members;
  for (const auto* m : model.ixp().members_at(last)) members.push_back(m->asn);
  const auto locality = model.as_graph().classify(members);

  analysis::ChurnTracker tracker{first, last};
  for (int week = first; week <= last; ++week) {
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
    for (const auto& obs : report.servers) {
      tracker.observe(obs.addr.value(), week, geo::region_of(obs.country),
                      obs.bytes);
    }
  }

  util::Table table{"Weekly server-IP pools (counts | traffic shares)"};
  table.header({"week", "active", "stable", "recurrent", "fresh",
                "stable traffic"});
  for (const auto& w : tracker.breakdown()) {
    const double active = static_cast<double>(w.active);
    const double bytes = w.active_bytes > 0 ? w.active_bytes : 1.0;
    table.row({std::to_string(w.week), util::with_thousands(w.active),
               util::percent(w.stable / active, 1),
               util::percent(w.recurrent / active, 1),
               util::percent(w.fresh / active, 1),
               util::percent(w.stable_bytes / bytes, 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper, 17 weeks: stable ~30% of the pool carrying >60% of"
               " the traffic)\n";
  return 0;
}
