// Figure 1 / §2.2.1 — the traffic filtering cascade.
//
// Paper (week 45): non-IPv4 ~0.4%, non-member-or-local ~0.6%,
// non-TCP/UDP <0.5%, peering >98.5% of all traffic; of the peering
// traffic, 82% TCP and 18% UDP by bytes.
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& /*ctx*/, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;
  const auto& f = report.filters;
  const double total_bytes = f.total_bytes();

  util::Table table{"Filtering cascade (share of total bytes)"};
  table.header({"step", "measured", "paper"});
  const auto share = [&](classify::TrafficClass c) {
    return util::percent(f.bytes_of(c) / total_bytes);
  };
  table.row({"non-IPv4 (IPv6, ARP, ...)",
             share(classify::TrafficClass::kNonIpv4), "~0.4%"});
  table.row({"non-member-to-member or local",
             share(classify::TrafficClass::kNonMemberOrLocal), "~0.6%"});
  table.row({"member IPv4 but not TCP/UDP",
             share(classify::TrafficClass::kNonTcpUdp), "<0.5%"});
  table.row({"peering traffic", share(classify::TrafficClass::kPeering),
             ">98.5%"});
  table.print(out);

  util::Table split{"\nPeering traffic transport split (bytes)"};
  split.header({"proto", "measured", "paper"});
  const double peering = f.tcp_bytes + f.udp_bytes;
  split.row({"TCP", util::percent(f.tcp_bytes / peering), "82%"});
  split.row({"UDP", util::percent(f.udp_bytes / peering), "18%"});
  split.print(out);

  out << "\nsamples processed: " << util::with_thousands(f.total_samples())
      << ", estimated weekly volume: " << util::bytes(total_bytes)
      << " (paper: ~98 PB/week at full scale)\n";
}

}  // namespace

const Spec fig1_filtering{
    "fig1_filtering",
    "Figure 1: traffic filtering steps (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
