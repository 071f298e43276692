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
#include <optional>

#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

class Fig7Links final : public Experiment {
 public:
  explicit Fig7Links(const Context& ctx) : Experiment(ctx) {
    const auto& model = ctx.model();
    for (Org& org : orgs_) {
      const auto id = model.org_by_name(org.name);
      if (!id) continue;
      const auto& record = model.orgs()[*id];
      if (!record.home_as) continue;

      // The org's ground-truth servers, so that every byte of its own
      // footprint is attributed.
      std::unordered_map<net::Ipv4Addr, std::uint32_t> server_org;
      for (const std::uint32_t s : model.org_servers(*id))
        server_org.emplace(model.servers()[s].addr, *id);
      org.id = *id;
      org.pass.emplace(model.ixp(), 45, std::move(server_org),
                       std::unordered_map<std::uint32_t, net::Asn>{
                           {*id, model.ases()[*record.home_as].asn}});
    }
  }

  std::vector<analysis::AttributionPass*> passes(int /*week*/) override {
    std::vector<analysis::AttributionPass*> passes;
    for (Org& org : orgs_)
      if (org.pass) passes.push_back(&*org.pass);
    return passes;
  }

  void observe(const WeekInput& /*in*/) override {
    for (const Org& org : orgs_)
      if (org.pass) print_org(org);
  }

 private:
  struct Org {
    const char* name;
    const char* paper_note;
    std::uint32_t id = 0;
    std::optional<analysis::AttributionPass> pass = std::nullopt;
  };

  void print_org(const Org& org) {
    const char* name = org.name;
    const auto* links = org.pass->links_of(org.id);
    if (links == nullptr) {
      out << name << ": no attributable traffic at this scale\n";
      return;
    }
    double org_total = 0.0;
    for (const auto& [member, usage] : *links) org_total += usage.total();

    // Histogram of members by direct-link share (the x axis of Fig. 7).
    std::size_t histogram[5] = {0, 0, 0, 0, 0};  // 0-20,...,80-100%
    std::vector<std::pair<double, double>> dots;  // (direct share, member share)
    for (const auto& [member, usage] : *links) {
      const double x = usage.direct_fraction();
      histogram[std::min<std::size_t>(4, static_cast<std::size_t>(x * 5.0))] +=
          1;
      dots.push_back({x, usage.total() / org_total});
    }

    util::Table table{std::string{"Members by share of their "} + name +
                      " traffic on the direct link"};
    table.header({"direct-link share", "members"});
    static const char* kBuckets[] = {"0-20%", "20-40%", "40-60%", "60-80%",
                                     "80-100%"};
    for (std::size_t b = 0; b < 5; ++b)
      table.row({kBuckets[b], std::to_string(histogram[b])});
    table.print(out);

    out << name << " traffic NOT via its own links: "
        << util::percent(org.pass->indirect_share(org.id), 1) << "   "
        << org.paper_note << "\n";

    // A few high-traffic dots for the scatter's flavour.
    std::sort(dots.begin(), dots.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out << "top members (direct share | share of " << name << " traffic): ";
    for (std::size_t i = 0; i < std::min<std::size_t>(5, dots.size()); ++i) {
      out << "(" << util::percent(dots[i].first, 0) << " | "
          << util::percent(dots[i].second, 2) << ") ";
    }
    out << "\n\n";
  }

  Org orgs_[4] = {
      {"akamai", "(paper: 11.1%)"},
      {"cloudflare", "(paper: scattered like Akamai despite own-DC model)"},
      {"cloudfront", "(paper: almost all traffic on Amazon links)"},
      {"ec2", "(paper: a sizable fraction via other links)"},
  };
};

}  // namespace

const Spec fig7_links{
    .id = "fig7_links",
    .title = "Figure 7: AS-link heterogeneity — direct vs indirect org "
             "traffic (week 45)",
    .weeks = Weeks::kWeek45,
    .make = make<Fig7Links>};

}  // namespace ixp::expcommon
