// Extension — the paper's closing prediction, §7:
//
//   "As an interesting consequence of more servers being deployed close
//    to the end users, we also expect that IXPs in the future will 'see'
//    less end user-to-server traffic but an increasing amount of
//    server-to-server traffic."
//
// This experiment measures exactly that quantity on the synthetic
// substrate, week by week: of the server-related peering bytes, how much
// runs between two identified server IPs (machine-to-machine: CDN fill,
// origin fetch, backend sync) vs. server-to-client. §2.2.2 already pegs
// the dual-role slice at ~10% of server traffic in 2012; the trend line
// is what a future-facing operator would watch.
#include <iostream>
#include <unordered_set>

#include "exp_common.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const auto ctx = expcommon::Context::create("Extension (§7): server-to-server vs user-to-server traffic trend", argc, argv);
  const auto& cfg = ctx.cfg;

  util::Table table{"Weekly composition of server-related peering bytes"};
  table.header({"week", "server-to-server", "user-to-server",
                "s2s share of peering"});
  for (int week = cfg.first_week; week <= cfg.last_week; ++week) {
    // Pass A: identify the week's servers.
    const auto report = ctx.run_week(week);
    std::unordered_set<net::Ipv4Addr> servers;
    servers.reserve(report.servers.size());
    for (const auto& obs : report.servers) servers.insert(obs.addr);

    // Pass B: attribute each peering sample.
    classify::PeeringFilter filter{ctx.model().ixp(), week};
    classify::FilterCounters counters;
    double s2s_bytes = 0.0;
    double u2s_bytes = 0.0;
    (void)ctx.workload().generate_week(week, [&](const sflow::FlowSample& s) {
      const auto peering = filter.filter(s, counters);
      if (!peering) return;
      const bool src_server = servers.count(peering->frame.ip->src) > 0;
      const bool dst_server = servers.count(peering->frame.ip->dst) > 0;
      if (src_server && dst_server)
        s2s_bytes += peering->expanded_bytes;
      else if (src_server || dst_server)
        u2s_bytes += peering->expanded_bytes;
    });

    const double peering_bytes =
        counters.bytes_of(classify::TrafficClass::kPeering);
    const double server_total = s2s_bytes + u2s_bytes;
    table.row({std::to_string(week),
               util::percent(server_total > 0 ? s2s_bytes / server_total : 0, 2),
               util::percent(server_total > 0 ? u2s_bytes / server_total : 0, 2),
               util::percent(peering_bytes > 0 ? s2s_bytes / peering_bytes : 0, 2)});
    std::cout << "week " << week << " done\n";
  }
  table.print(std::cout);
  std::cout << "\npaper, §2.2.2 (2012 baseline): machine-to-machine traffic of"
               " dual-role IPs is ~10% of server traffic.\n"
               "paper, §7 (prediction): the server-to-server share will grow"
               " as server deployments move closer to users.\n";
  return 0;
}
