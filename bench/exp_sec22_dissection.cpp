// §2.2.2 — Web-server identification numbers (week 45).
//
// Paper: ~1.3M HTTP server IPs and ~40M client IPs via string matching;
// HTTPS funnel 1.5M candidates -> 500K respond -> 250K confirmed; ~1.5M
// Web server IPs combined; 350K multi-purpose; 200K act as server and
// client, responsible for ~10% of server traffic; server IPs see >70% of
// the peering traffic.
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& ctx, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;
  const auto& d = report.dissection;
  const double server_scale = ctx.quick ? 0.0 : ctx.server_scale();
  const double client_scale = ctx.quick ? 0.0 : ctx.ip_scale();

  util::Table table{"Identification counts"};
  table.header({"quantity", "measured", "paper", "paper x scale"});
  const auto row = [&](const char* label, double v, double paper, double scale) {
    table.row({label, util::compact(v), util::compact(paper),
               scale > 0 ? util::compact(paper * scale) : std::string{"-"}});
  };
  row("HTTP server IPs (string match)", static_cast<double>(d.http_server_ips),
      1'300'000, server_scale);
  row("HTTP client IPs", static_cast<double>(d.client_ips), 40'000'000,
      client_scale);
  row("HTTPS candidates (port 443)", static_cast<double>(report.https_funnel.candidates),
      1'500'000, server_scale);
  row("HTTPS responding to crawls", static_cast<double>(report.https_funnel.responded),
      500'000, server_scale);
  row("HTTPS confirmed (all checks)", static_cast<double>(report.https_funnel.confirmed),
      250'000, server_scale);
  row("Web server IPs (HTTP u HTTPS)", static_cast<double>(d.web_server_ips),
      1'500'000, server_scale);
  row("multi-purpose server IPs", static_cast<double>(d.multi_purpose_ips),
      350'000, server_scale);
  row("server+client (dual-role) IPs", static_cast<double>(d.dual_role_ips),
      200'000, server_scale);
  table.print(out);

  // Sample-level attribution for the server byte share (pass B).
  out << "\nserver-related share of peering bytes: "
      << util::percent(in.servers->server_share(), 1) << "  (paper: >70%)\n";

  double dual_bytes = 0.0;
  double server_bytes_sum = 0.0;
  for (const auto& obs : report.servers) {
    server_bytes_sum += obs.bytes;
    if (obs.also_client) dual_bytes += obs.bytes;
  }
  out << "dual-role IPs' share of server traffic: "
      << util::percent(dual_bytes / server_bytes_sum, 1)
      << "  (paper: ~10%)\n";
}

}  // namespace

const Spec sec22_dissection{
    "sec22_dissection",
    "Section 2.2.2: dissecting the Web-server-related traffic (week 45)",
    Weeks::kWeek45, one_week<print>, /*server_pass=*/true};

}  // namespace ixp::expcommon
