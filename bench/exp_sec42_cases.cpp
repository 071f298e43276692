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
#include <optional>
#include <unordered_set>

#include "analysis/case_studies.hpp"
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

class Sec42Cases final : public Experiment {
 public:
  explicit Sec42Cases(const Context& ctx)
      : Experiment(ctx),
        ec2_(ctx.model().org_by_name("ec2")),
        nimbus_(ctx.model().org_by_name("nimbus")),
        reseller_asn_(ctx.model().ases()[ctx.model().reseller_as()].asn) {}

  void observe(const WeekInput& in) override {
    WeekRow row;
    row.https = analysis::https_trend_row(in.report);

    std::unordered_set<net::Ipv4Addr> servers;
    for (const auto& obs : in.report.servers) servers.insert(obs.addr);
    if (ec2_)
      row.ec2_dcs =
          analysis::match_published_ranges(ctx_.model(), *ec2_, servers);
    if (nimbus_)
      row.nimbus_dcs =
          analysis::match_published_ranges(ctx_.model(), *nimbus_, servers);

    // Reseller: server IPs whose traffic entered over the reseller port.
    row.reseller_server_ips = in.servers->ingress_server_ips(reseller_asn_);

    out << "week " << in.week << " done\n";
    rows_.push_back(std::move(row));
  }

  void finish() override {
    util::Table https{"\nHTTPS adoption trend"};
    https.header(
        {"week", "HTTPS servers", "share of servers", "share of traffic"});
    for (const auto& row : rows_) {
      https.row({std::to_string(row.https.week),
                 util::with_thousands(row.https.https_servers),
                 util::percent(row.https.https_server_share, 1),
                 util::percent(row.https.https_traffic_share, 2)});
    }
    https.print(out);
    out << "paper: a small yet steady increase across the period\n";

    if (ec2_ && !rows_.front().ec2_dcs.empty()) {
      util::Table table{"\nEC2 server IPs by data center (published ranges)"};
      std::vector<std::string> header{"week"};
      for (const auto& dc : rows_.front().ec2_dcs) header.push_back(dc.name);
      table.header(header);
      for (const auto& row : rows_) {
        std::vector<std::string> cells{std::to_string(row.https.week)};
        for (const auto& dc : row.ec2_dcs)
          cells.push_back(util::with_thousands(dc.observed_servers));
        table.row(cells);
      }
      table.print(out);
      out << "paper: pronounced eu-ireland increase in weeks 49-51 "
             "(Netflix launching in the Nordics)\n";
    }

    if (nimbus_ && !rows_.front().nimbus_dcs.empty()) {
      util::Table table{"\nCloud provider server IPs by DC (Hurricane Sandy)"};
      std::vector<std::string> header{"week"};
      for (const auto& dc : rows_.front().nimbus_dcs) header.push_back(dc.name);
      table.header(header);
      for (const auto& row : rows_) {
        if (row.https.week < 42 || row.https.week > 46) continue;
        std::vector<std::string> cells{std::to_string(row.https.week)};
        for (const auto& dc : row.nimbus_dcs)
          cells.push_back(util::with_thousands(dc.observed_servers));
        table.row(cells);
      }
      table.print(out);
      out << "paper: us-east drops to near zero in week 44\n";
    }

    util::Table reseller{"\nServer IPs entering via the reseller port"};
    reseller.header({"week", "server IPs"});
    for (const auto& row : rows_) {
      reseller.row({std::to_string(row.https.week),
                    util::with_thousands(row.reseller_server_ips)});
    }
    reseller.print(out);
    const double growth =
        rows_.front().reseller_server_ips == 0
            ? 0.0
            : static_cast<double>(rows_.back().reseller_server_ips) /
                  static_cast<double>(rows_.front().reseller_server_ips);
    out << "reseller growth factor across the period: x"
        << util::fixed(growth, 2) << "  (paper: 50K -> 100K, x2)\n";
  }

 private:
  struct WeekRow {
    analysis::HttpsTrendRow https;
    std::vector<analysis::DataCenterCount> ec2_dcs;
    std::vector<analysis::DataCenterCount> nimbus_dcs;
    std::size_t reseller_server_ips = 0;
  };

  const std::optional<std::uint32_t> ec2_;
  const std::optional<std::uint32_t> nimbus_;
  const net::Asn reseller_asn_;
  std::vector<WeekRow> rows_;
};

}  // namespace

const Spec sec42_cases{
    .id = "sec42_cases",
    .title = "Section 4.2: changes in the face of significant stability",
    .weeks = Weeks::kAll,
    .make = make<Sec42Cases>,
    .server_pass = true};

}  // namespace ixp::expcommon
