// Figure 2 — traffic per server IP, ranked by traffic share.
//
// Paper: individual server IPs carry more than 0.5% of all server-related
// traffic; the top 34 server IPs carry more than 6% of it (front-end
// gateways of CDNs, content providers, streamers, virtual backbones,
// resellers).
#include <algorithm>
#include <vector>

#include "exp_common.hpp"
#include "stats.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& /*ctx*/, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  std::vector<double> bytes;
  bytes.reserve(report.servers.size());
  for (const auto& server : report.servers) bytes.push_back(server.bytes);
  std::sort(bytes.begin(), bytes.end(), std::greater<>());
  double total = 0.0;
  for (const double b : bytes) total += b;

  util::Table table{"Rank/share series (log-spaced ranks)"};
  table.header({"rank", "share of server traffic", "cumulative"});
  double cumulative = 0.0;
  std::size_t next_print = 1;
  for (std::size_t r = 0; r < bytes.size(); ++r) {
    cumulative += bytes[r];
    if (r + 1 == next_print) {
      table.row({std::to_string(r + 1), util::percent(bytes[r] / total, 4),
                 util::percent(cumulative / total)});
      next_print *= 4;
    }
  }
  table.print(out);

  out << "\ntop server IP share:   "
      << util::percent(bytes.empty() ? 0.0 : bytes[0] / total, 3)
      << "  (paper: individual IPs exceed 0.5%)\n";
  out << "top-34 server IPs:     "
      << util::percent(util::top_k_share(bytes, 34))
      << " of server traffic  (paper: >6%)\n";
  out << "Gini coefficient:      "
      << util::fixed(util::gini(bytes), 3)
      << " (heavy concentration expected)\n";
}

}  // namespace

const Spec fig2_server_share{
    "fig2_server_share",
    "Figure 2: per-server-IP traffic shares (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
