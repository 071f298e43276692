// Figure 7 + §5.3 — AS-link heterogeneity (week 45).
//
// For each member peering with Akamai: the share of its Akamai traffic
// arriving over the *direct* Akamai link (x axis) vs. the member's share
// of the total Akamai server traffic (y axis). Paper: dots scatter across
// the whole x range — some members receive all their Akamai bytes over
// other members' links; overall 11.1% of Akamai's traffic bypasses its
// own links. CloudFlare (own data centers, different business model)
// shows the same scattered usage; Amazon CloudFront is almost entirely
// direct while EC2 is not.
#include <algorithm>
#include <iostream>

#include "analysis/attribution.hpp"
#include "exp_common.hpp"

namespace {

using namespace ixp;

void analyze_org(const expcommon::Context& ctx, const char* name,
                 const char* paper_note) {
  const auto org = ctx.model().org_by_name(name);
  if (!org) return;
  const auto& record = ctx.model().orgs()[*org];
  if (!record.home_as) return;

  std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org;
  for (const std::uint32_t s : ctx.model().org_servers(*org))
    server_org.emplace(ctx.model().servers()[s].addr, *org);
  std::unordered_map<std::uint32_t, net::Asn> org_home{
      {*org, ctx.model().ases()[*record.home_as].asn}};

  analysis::AttributionPass pass{ctx.model().ixp(), 45, std::move(server_org),
                                 std::move(org_home)};
  (void)ctx.workload().generate_week(
      45, [&pass](const sflow::FlowSample& s) { pass.observe(s); });

  const auto* links = pass.links_of(*org);
  if (links == nullptr) {
    std::cout << name << ": no attributable traffic at this scale\n";
    return;
  }
  double org_total = 0.0;
  for (const auto& [member, usage] : *links) org_total += usage.total();

  // Histogram of members by direct-link share (the x axis of Fig. 7).
  std::size_t histogram[5] = {0, 0, 0, 0, 0};  // 0-20,...,80-100%
  std::vector<std::pair<double, double>> dots;  // (direct share, member share)
  for (const auto& [member, usage] : *links) {
    const double x = usage.direct_fraction();
    histogram[std::min<std::size_t>(4, static_cast<std::size_t>(x * 5.0))] += 1;
    dots.push_back({x, usage.total() / org_total});
  }

  util::Table table{std::string{"Members by share of their "} + name +
                    " traffic on the direct link"};
  table.header({"direct-link share", "members"});
  static const char* kBuckets[] = {"0-20%", "20-40%", "40-60%", "60-80%",
                                   "80-100%"};
  for (std::size_t b = 0; b < 5; ++b)
    table.row({kBuckets[b], std::to_string(histogram[b])});
  table.print(std::cout);

  std::cout << name << " traffic NOT via its own links: "
            << util::percent(pass.indirect_share(*org), 1) << "   " << paper_note
            << "\n";

  // A few high-traffic dots for the scatter's flavour.
  std::sort(dots.begin(), dots.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::cout << "top members (direct share | share of " << name << " traffic): ";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, dots.size()); ++i) {
    std::cout << "(" << util::percent(dots[i].first, 0) << " | "
              << util::percent(dots[i].second, 2) << ") ";
  }
  std::cout << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = expcommon::Context::create(
      "Figure 7: AS-link heterogeneity — direct vs indirect org traffic "
      "(week 45)",
      argc, argv);
  analyze_org(ctx, "akamai", "(paper: 11.1%)");
  analyze_org(ctx, "cloudflare",
              "(paper: scattered like Akamai despite own-DC model)");
  analyze_org(ctx, "cloudfront", "(paper: almost all traffic on Amazon links)");
  analyze_org(ctx, "ec2", "(paper: a sizable fraction via other links)");
  return 0;
}
