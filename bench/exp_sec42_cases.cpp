// §4.2 — change detection from weekly snapshots (weeks 35-51).
//
// Four case studies:
//   HTTPS growth      — small, steady increase of HTTPS server share and
//                       traffic share across the period.
//   EC2 / Netflix     — pronounced jump of server IPs in EC2's Ireland
//                       DC in weeks 49-51 (the Netflix Nordics launch).
//   Hurricane Sandy   — week-44 collapse of the cloud provider's us-east
//                       server IPs.
//   Reseller growth   — a reseller's customer server IPs double over the
//                       period (paper: 50K -> 100K in four months).
#include <iostream>
#include <unordered_set>

#include "analysis/attribution.hpp"
#include "analysis/case_studies.hpp"
#include "exp_common.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const auto ctx = expcommon::Context::create("Section 4.2: changes in the face of significant stability", argc, argv);
  const auto& cfg = ctx.cfg;

  const auto ec2 = ctx.model().org_by_name("ec2");
  const auto nimbus = ctx.model().org_by_name("nimbus");
  const auto reseller_asn = ctx.model().ases()[ctx.model().reseller_as()].asn;

  struct WeekRow {
    analysis::HttpsTrendRow https;
    std::vector<analysis::DataCenterCount> ec2_dcs;
    std::vector<analysis::DataCenterCount> nimbus_dcs;
    std::size_t reseller_server_ips = 0;
  };
  std::vector<WeekRow> rows;

  for (int week = cfg.first_week; week <= cfg.last_week; ++week) {
    const auto report = ctx.run_week(week);
    WeekRow row;
    row.https = analysis::https_trend_row(report);

    std::unordered_set<net::Ipv4Addr> servers;
    for (const auto& obs : report.servers) servers.insert(obs.addr);
    if (ec2) row.ec2_dcs = analysis::match_published_ranges(ctx.model(), *ec2, servers);
    if (nimbus)
      row.nimbus_dcs = analysis::match_published_ranges(ctx.model(), *nimbus, servers);

    // Reseller: server IPs whose traffic entered over the reseller port.
    analysis::AttributionPass pass{ctx.model().ixp(), week,
                                   [&] {
                                     std::unordered_map<net::Ipv4Addr, std::uint32_t> m;
                                     for (const auto& obs : report.servers)
                                       m.emplace(obs.addr, 0u);
                                     return m;
                                   }(),
                                   {}};
    (void)ctx.workload().generate_week(
        week, [&pass](const sflow::FlowSample& s) { pass.observe(s); });
    row.reseller_server_ips = pass.ingress_server_ips(reseller_asn);

    std::cout << "week " << week << " done\n";
    rows.push_back(std::move(row));
  }

  util::Table https{"\nHTTPS adoption trend"};
  https.header({"week", "HTTPS servers", "share of servers", "share of traffic"});
  for (const auto& row : rows) {
    https.row({std::to_string(row.https.week),
               util::with_thousands(row.https.https_servers),
               util::percent(row.https.https_server_share, 1),
               util::percent(row.https.https_traffic_share, 2)});
  }
  https.print(std::cout);
  std::cout << "paper: a small yet steady increase across the period\n";

  if (ec2 && !rows.front().ec2_dcs.empty()) {
    util::Table table{"\nEC2 server IPs by data center (published ranges)"};
    std::vector<std::string> header{"week"};
    for (const auto& dc : rows.front().ec2_dcs) header.push_back(dc.name);
    table.header(header);
    for (const auto& row : rows) {
      std::vector<std::string> cells{std::to_string(row.https.week)};
      for (const auto& dc : row.ec2_dcs)
        cells.push_back(util::with_thousands(dc.observed_servers));
      table.row(cells);
    }
    table.print(std::cout);
    std::cout << "paper: pronounced eu-ireland increase in weeks 49-51 "
                 "(Netflix launching in the Nordics)\n";
  }

  if (nimbus && !rows.front().nimbus_dcs.empty()) {
    util::Table table{"\nCloud provider server IPs by DC (Hurricane Sandy)"};
    std::vector<std::string> header{"week"};
    for (const auto& dc : rows.front().nimbus_dcs) header.push_back(dc.name);
    table.header(header);
    for (const auto& row : rows) {
      if (row.https.week < 42 || row.https.week > 46) continue;
      std::vector<std::string> cells{std::to_string(row.https.week)};
      for (const auto& dc : row.nimbus_dcs)
        cells.push_back(util::with_thousands(dc.observed_servers));
      table.row(cells);
    }
    table.print(std::cout);
    std::cout << "paper: us-east drops to near zero in week 44\n";
  }

  util::Table reseller{"\nServer IPs entering via the reseller port"};
  reseller.header({"week", "server IPs"});
  for (const auto& row : rows) {
    reseller.row({std::to_string(row.https.week),
                  util::with_thousands(row.reseller_server_ips)});
  }
  reseller.print(std::cout);
  const double growth =
      rows.front().reseller_server_ips == 0
          ? 0.0
          : static_cast<double>(rows.back().reseller_server_ips) /
                static_cast<double>(rows.front().reseller_server_ips);
  std::cout << "reseller growth factor across the period: x"
            << util::fixed(growth, 2) << "  (paper: 50K -> 100K, x2)\n";
  return 0;
}
