// §2.2.2 — Web-server identification numbers (week 45).
//
// Paper: ~1.3M HTTP server IPs and ~40M client IPs via string matching;
// HTTPS funnel 1.5M candidates -> 500K respond -> 250K confirmed; ~1.5M
// Web server IPs combined; 350K multi-purpose; 200K act as server and
// client, responsible for ~10% of server traffic; server IPs see >70% of
// the peering traffic.
#include <iostream>

#include "analysis/attribution.hpp"
#include "exp_common.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const auto ctx = expcommon::Context::create("Section 2.2.2: dissecting the Web-server-related traffic (week 45)", argc, argv);
  const auto report = ctx.run_week(45);
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
  table.print(std::cout);

  // Sample-level attribution for the server byte share (pass B).
  std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org;
  for (const auto& obs : report.servers) server_org.emplace(obs.addr, 0u);
  analysis::AttributionPass pass{ctx.model().ixp(), 45, std::move(server_org), {}};
  (void)ctx.workload().generate_week(
      45, [&pass](const sflow::FlowSample& s) { pass.observe(s); });

  std::cout << "\nserver-related share of peering bytes: "
            << util::percent(pass.server_share(), 1) << "  (paper: >70%)\n";

  double dual_bytes = 0.0;
  double server_bytes_sum = 0.0;
  for (const auto& obs : report.servers) {
    server_bytes_sum += obs.bytes;
    if (obs.also_client) dual_bytes += obs.bytes;
  }
  std::cout << "dual-role IPs' share of server traffic: "
            << util::percent(dual_bytes / server_bytes_sum, 1)
            << "  (paper: ~10%)\n";
  return 0;
}
