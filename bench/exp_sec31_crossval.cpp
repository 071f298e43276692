// §3.1 — cross-validation against the orthogonal ISP vantage point.
//
// Paper: using HTTP/DNS logs from a large European Tier-1 ISP, only ~45K
// of the server IPs seen by the ISP are not seen at the IXP (~3% of the
// IXP's 1.5M), and every overlapping IP identified as a server at the IXP
// is confirmed to be a server in the more detailed ISP data.
#include <unordered_set>

#include "exp_common.hpp"
#include "gen/isp_observer.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& ctx, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  std::unordered_set<net::Ipv4Addr> ixp_servers;
  for (const auto& obs : report.servers) ixp_servers.insert(obs.addr);

  const gen::IspObserver isp{ctx.model()};
  const auto isp_servers = isp.observed_servers(45);

  std::size_t overlap = 0;
  std::size_t isp_only = 0;
  for (const net::Ipv4Addr addr : isp_servers) {
    if (ixp_servers.count(addr) > 0)
      ++overlap;
    else
      ++isp_only;
  }

  // Confirmation: every IXP-identified server in the overlap must be a
  // real server in the (ground-truth-backed) ISP view.
  std::size_t confirmed = 0;
  for (const net::Ipv4Addr addr : ixp_servers) {
    if (isp_servers.count(addr) == 0) continue;
    if (ctx.model().server_by_addr(addr)) ++confirmed;
  }

  util::Table table{"ISP vs IXP server visibility"};
  table.header({"quantity", "measured", "paper"});
  table.row({"server IPs at the IXP", util::with_thousands(ixp_servers.size()),
             "~1.5M"});
  table.row({"server IPs in the ISP logs", util::with_thousands(isp_servers.size()),
             "(proprietary)"});
  table.row({"seen by both", util::with_thousands(overlap), "-"});
  table.row({"ISP-only (unseen at IXP)", util::with_thousands(isp_only),
             "~45K (~3% of IXP count)"});
  table.print(out);

  out << "\nISP-only share relative to IXP server count: "
      << util::percent(static_cast<double>(isp_only) /
                       static_cast<double>(ixp_servers.size()), 1)
      << "  (paper: ~3%)\n";
  out << "overlapping IXP-identified servers confirmed by ISP data: "
      << confirmed << "/" << overlap
      << " (paper: all confirmed)\n";
}

}  // namespace

const Spec sec31_crossval{
    "sec31_crossval",
    "Section 3.1: cross-validation with a Tier-1 ISP's logs (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
