// §3.3 — the IXP's blind spots (week 45).
//
// Paper: URIs recovered at the IXP cover ~20% of the Alexa top-1M second-
// level domains, 63% of the top-10K, 80% of the top-1K. Active DNS
// queries for the uncovered domains (through ~25K usable resolvers in
// ~12K ASes, filtered from 280K candidates) yield ~600K server IPs, of
// which >360K were already seen at the IXP; the 240K unseen ones fall
// into four categories, with private clusters + far-region deployments
// making up >40%. For Akamai: 28K servers in 278 ASes at the IXP vs
// ~100K in ~700 ASes via targeted active measurement.
#include <unordered_set>

#include "analysis/blind_spots.hpp"
#include "dns/public_suffix.hpp"
#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& ctx, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  // --- resolver filtering (§2.3) -------------------------------------------
  // Probe every candidate with a name whose answer we control.
  dns::ZoneDatabase probe_db;
  const auto probe_name = *dns::DnsName::parse("probe.ixpscope.net");
  probe_db.add_a(probe_name, net::Ipv4Addr{192, 0, 2, 1});
  const auto usable =
      ctx.model().resolvers().usable_resolvers(probe_db, probe_name);
  out << "resolver filtering: " << ctx.model().resolvers().size()
      << " candidates -> " << usable.size() << " usable in "
      << dns::ResolverPopulation::distinct_ases(usable)
      << " ASes  (paper: 280K -> ~25K in ~12K ASes)\n\n";

  // --- Alexa recovery --------------------------------------------------------
  const auto& psl = dns::PublicSuffixList::builtin();
  std::unordered_set<dns::DnsName> recovered;
  for (const auto& obs : report.servers) {
    for (const auto& uri : obs.metadata.uris) {
      if (const auto domain = uri.authority(psl)) recovered.insert(*domain);
    }
  }
  util::Table alexa{"Alexa-style site-list recovery from IXP URIs"};
  alexa.header({"list", "measured", "paper"});
  const std::size_t sites = ctx.model().sites().size();
  const auto row = [&](std::size_t top, const char* label, const char* paper) {
    const auto recovery = analysis::alexa_recovery(ctx.model(), top, recovered);
    alexa.row({label, util::percent(recovery.share(), 1), paper});
  };
  row(sites / 1000 ? sites / 1000 : 1, "top-1K (scaled)", "80%");
  row(sites / 100 ? sites / 100 : 1, "top-10K (scaled)", "63%");
  row(sites, "full list (top-1M)", "~20%");
  alexa.print(out);

  // --- resolver sweep over uncovered domains ---------------------------------
  std::unordered_set<net::Ipv4Addr> ixp_servers;
  for (const auto& obs : report.servers) ixp_servers.insert(obs.addr);
  util::Rng rng{ctx.cfg.seed ^ 0x5eeb};
  const std::size_t per_site = ctx.quick ? 4 : 12;
  const auto sweep = analysis::resolver_sweep(ctx.model(), usable, recovered,
                                              ixp_servers, per_site, 45, rng);
  out << "\nresolver sweep: queried " << sweep.queried_sites
      << " uncovered sites via " << per_site
      << " resolvers each (paper: 100 each)\n";
  out << "  discovered server IPs: " << sweep.discovered_ips
      << "  (paper: ~600K)\n";
  out << "  already seen at IXP:   " << sweep.already_seen_at_ixp
      << "  (paper: >360K)\n";
  out << "  unseen at IXP:         " << sweep.unseen_at_ixp
      << "  (paper: ~240K)\n";

  util::Table reasons{"\nUnseen-at-IXP breakdown (ground truth)"};
  reasons.header({"category", "IPs", "share of blind unseen"});
  static const char* kReason[] = {
      "visible but unidentified (reduced-volume artifact)",
      "private clusters (cat 1)", "far-region deployments (cat 2)",
      "invalid-URI handlers (cat 3)", "small far orgs (cat 4)"};
  double blind_unseen = 0;
  for (std::size_t r = 1; r < 5; ++r)
    blind_unseen += static_cast<double>(sweep.unseen_by_reason[r]);
  if (blind_unseen <= 0) blind_unseen = 1;
  for (std::size_t r = 0; r < 5; ++r) {
    reasons.row({kReason[r], util::with_thousands(sweep.unseen_by_reason[r]),
                 r == 0 ? std::string{"-"}
                        : util::percent(sweep.unseen_by_reason[r] / blind_unseen, 1)});
  }
  reasons.print(out);
  const double cat12 =
      (sweep.unseen_by_reason[1] + sweep.unseen_by_reason[2]) / blind_unseen;
  out << "categories 1+2 share of blind unseen: " << util::percent(cat12, 1)
      << "  (paper: >40% of the 240K)\n";

  // --- Akamai footprint deep-dive --------------------------------------------
  if (const auto akamai = ctx.model().org_by_name("akamai")) {
    std::size_t at_ixp = 0;
    std::unordered_set<net::Asn> ixp_ases;
    for (const std::uint32_t s : ctx.model().org_servers(*akamai)) {
      const auto addr = ctx.model().servers()[s].addr;
      if (ixp_servers.count(addr) == 0) continue;
      ++at_ixp;
      if (const auto asn = ctx.model().routing().origin_of(addr))
        ixp_ases.insert(*asn);
    }
    const auto active =
        analysis::discover_org_footprint(ctx.model(), *akamai, usable, rng);
    const auto truth = ctx.model().org_servers(*akamai).size();
    out << "\nAkamai footprint:\n";
    out << "  at the IXP:          " << at_ixp << " servers in "
        << ixp_ases.size() << " ASes  (paper: 28K in 278)\n";
    out << "  active measurement:  " << active.servers << " servers in "
        << active.ases << " ASes  (paper: ~100K in ~700)\n";
    out << "  ground truth:        " << truth
        << " servers  (paper: Akamai claims 100K+ in 1K+ ASes)\n";
  }
}

}  // namespace

const Spec sec33_blindspots{
    "sec33_blindspots",
    "Section 3.3: blind spots (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
