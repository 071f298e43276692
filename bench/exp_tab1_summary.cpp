// Table 1 — IXP summary statistics, week 45.
//
// Paper: peering traffic from 232,460,635 IPs, 42,825 ASes, 445,051
// subnets, 242 countries; server traffic from 1,488,286 IPs, 19,824 ASes,
// 75,841 subnets, 200 countries.
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& ctx, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  const double ip_scale = ctx.quick ? 0.0 : ctx.ip_scale();
  const double server_scale = ctx.quick ? 0.0 : ctx.server_scale();

  util::Table table{"Week-45 visibility (measured vs. paper, scale-adjusted)"};
  table.header({"row", "measured", "paper", "paper x scale"});
  const auto row = [&](const char* label, double measured, double paper,
                       double scale) {
    table.row({label, util::compact(measured), util::compact(paper),
               scale > 0 ? util::compact(paper * scale) : std::string{"-"}});
  };
  row("peering: IPs", static_cast<double>(report.peering_ips), 232'460'635.0,
      ip_scale);
  row("peering: ASes", static_cast<double>(report.peering_ases), 42'825.0, 1.0);
  row("peering: subnets", static_cast<double>(report.peering_prefixes),
      445'051.0, 1.0);
  row("peering: countries", static_cast<double>(report.peering_countries),
      242.0, 1.0);
  row("server: IPs", static_cast<double>(report.server_ips), 1'488'286.0,
      server_scale);
  row("server: ASes", static_cast<double>(report.server_ases), 19'824.0, 1.0);
  row("server: subnets", static_cast<double>(report.server_prefixes), 75'841.0,
      1.0);
  row("server: countries", static_cast<double>(report.server_countries), 200.0,
      1.0);
  table.print(out);

  out << "\nNote: AS/subnet/country rows are structural (kept at paper"
         " scale);\nIP rows scale with the configured volume.\n"
      << "members at week 45: " << ctx.model().ixp().member_count_at(45)
      << " (paper: 452)\n";
}

}  // namespace

const Spec tab1_summary{
    "tab1_summary",
    "Table 1: IXP summary statistics (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
