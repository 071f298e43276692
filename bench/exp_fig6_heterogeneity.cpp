// Figure 6 + §5.2 — network heterogenization (week 45).
//
// (b) per organization: number of server IPs vs. number of ASes hosting
//     them. Paper: Akamai has 28K server IPs in 278 ASes; 143 orgs have
//     >1000 server IPs, >6K orgs have >10; multi-AS footprints are
//     commonplace, not an oddity of the giants.
// (c) per AS: number of server IPs hosted vs. number of organizations
//     they belong to. Paper: >500 ASes host servers of >5 orgs, >200 of
//     >10; one Web hoster (AS36351) holds 40K+ server IPs of 350+ orgs.
#include <algorithm>

#include "analysis/heterogeneity.hpp"
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& ctx, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  // Cluster the harvested metadata (§5.1) to obtain organizations.
  std::vector<classify::ServerMetadata> metadata;
  metadata.reserve(report.servers.size());
  for (const auto& obs : report.servers) metadata.push_back(obs.metadata);
  const core::OrgClusterer clusterer{ctx.model().dns_db(),
                                     dns::PublicSuffixList::builtin()};
  const auto clustering = clusterer.cluster(metadata);
  const auto view = analysis::build_heterogeneity(clustering, ctx.model().routing());

  const double server_scale = ctx.quick ? 1.0 : ctx.server_scale();

  out << "organizations identified: " << view.orgs.size()
      << "  (paper: ~21K; scaled ~"
      << util::compact(21'000 * 2.0 * server_scale) << ")\n\n";

  util::Table fig6b{"Fig 6(b): top organizations (server IPs vs AS spread)"};
  fig6b.header({"organization", "server IPs", "ASes"});
  for (std::size_t i = 0; i < std::min<std::size_t>(12, view.orgs.size()); ++i) {
    fig6b.row({view.orgs[i].authority.text(),
               util::with_thousands(view.orgs[i].server_ips),
               std::to_string(view.orgs[i].ases)});
  }
  fig6b.print(out);

  const std::size_t multi_as = static_cast<std::size_t>(std::count_if(
      view.orgs.begin(), view.orgs.end(),
      [](const analysis::OrgFootprint& o) { return o.ases > 1; }));
  out << "\norgs with >10 server IPs:   " << view.orgs_with_more_than(10)
      << " of " << view.orgs.size()
      << "  (paper: >6K of 21K, i.e. ~29%)\n";
  out << "orgs with >"
      << static_cast<std::size_t>(std::max(2.0, 1000 * server_scale))
      << " server IPs (scaled 1000): "
      << view.orgs_with_more_than(
             static_cast<std::size_t>(std::max(2.0, 1000 * server_scale)))
      << "  (paper: 143 orgs >1000)\n";
  out << "orgs spanning multiple ASes: " << multi_as << " ("
      << util::percent(static_cast<double>(multi_as) /
                       static_cast<double>(view.orgs.size()))
      << ")  — heterogenization is not confined to the big players\n";

  util::Table fig6c{"\nFig 6(c): top ASes by hosted server IPs"};
  fig6c.header({"AS", "server IPs", "orgs hosted"});
  for (std::size_t i = 0; i < std::min<std::size_t>(12, view.ases.size()); ++i) {
    fig6c.row({view.ases[i].asn.to_string(),
               util::with_thousands(view.ases[i].server_ips),
               std::to_string(view.ases[i].orgs)});
  }
  fig6c.print(out);

  out << "\nASes hosting >5 orgs:  " << view.ases_hosting_more_than(5)
      << "  (paper: >500)\n";
  out << "ASes hosting >10 orgs: " << view.ases_hosting_more_than(10)
      << "  (paper: >200)\n";

  // The §5.2 example hoster: AS92572 at paper scale (90K+ server IPs).
  for (const auto& as : view.ases) {
    if (as.asn == net::Asn{92572} || as.asn == net::Asn{36351}) {
      out << as.asn.to_string() << ": "
          << util::with_thousands(as.server_ips) << " server IPs of "
          << as.orgs << " orgs  (paper: AS92572 90K+ IPs; AS36351 40K+"
          << " IPs of 350+ orgs)\n";
    }
  }
}

}  // namespace

const Spec fig6_heterogeneity{
    "fig6_heterogeneity",
    "Figure 6: heterogeneity of organizations and ASes (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
