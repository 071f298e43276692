// Table 2 — top-10 contributors, week 45.
//
// Four country rankings (all IPs / server IPs, by count and by traffic)
// and four network rankings. Paper heads: countries US/DE/CN/RU... by
// IPs, DE/US/RU... by traffic; networks Chinanet/Vodafone-DE/... by IPs
// and Akamai/Google/Hetzner... by traffic; server-IP networks led by
// Akamai and the big hosters, server traffic by Akamai/Google/Hetzner/
// VKontakte.
#include <algorithm>
#include <vector>

#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

template <typename Map, typename Value, typename Label>
void print_top10(std::ostream& out, const std::string& title, const Map& map,
                 Value value, Label label, const char* paper_head) {
  using Entry = std::pair<std::string, double>;
  std::vector<Entry> entries;
  entries.reserve(map.size());
  double total = 0.0;
  for (const auto& [key, tally] : map) {
    const double v = value(tally);
    if (v <= 0.0) continue;
    entries.push_back({label(key), v});
    total += v;
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.second > b.second; });
  util::Table table{title};
  table.header({"rank", "entity", "share"});
  for (std::size_t i = 0; i < std::min<std::size_t>(10, entries.size()); ++i) {
    table.row({std::to_string(i + 1), entries[i].first,
               util::percent(entries[i].second / total)});
  }
  table.print(out);
  out << "paper head: " << paper_head << "\n\n";
}

void print(const Context& ctx, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  const auto country_label = [](geo::CountryCode code) { return code.to_string(); };
  const auto as_label = [&](net::Asn asn) {
    // Annotate named-head ASNs with the org/eyeball name for readability.
    for (const auto& org : ctx.model().orgs()) {
      if (org.named_head && org.home_as &&
          ctx.model().ases()[*org.home_as].asn == asn)
        return asn.to_string() + " (" + org.name + ")";
    }
    for (const auto& spec : gen::named_eyeball_specs()) {
      if (spec.asn == asn) return asn.to_string() + " (" + spec.name + ")";
    }
    return asn.to_string();
  };

  print_top10(out, "Countries by all observed IPs", report.by_country,
              [](const core::CountryTally& t) { return static_cast<double>(t.ips); },
              country_label, "US, DE, CN, RU, IT, FR, GB, TR, UA, JP");
  print_top10(out, "Countries by server IPs", report.by_country,
              [](const core::CountryTally& t) { return static_cast<double>(t.server_ips); },
              country_label, "DE, US, RU, FR, GB, CN, NL, CZ, IT, UA");
  print_top10(out, "Countries by traffic", report.by_country,
              [](const core::CountryTally& t) { return t.bytes; }, country_label,
              "DE, US, RU, FR, GB, CN, NL, CZ, IT, UA");
  print_top10(out, "Countries by server traffic", report.by_country,
              [](const core::CountryTally& t) { return t.server_bytes; },
              country_label, "US, DE, NL, RU, GB, EU, FR, RO, UA, CZ");

  print_top10(out, "Networks by all observed IPs", report.by_as,
              [](const core::AsTally& t) { return static_cast<double>(t.ips); },
              as_label,
              "Chinanet, Vodafone/DE, Free SAS, Turk Telekom, Telecom Italia, ...");
  print_top10(out, "Networks by server IPs", report.by_as,
              [](const core::AsTally& t) { return static_cast<double>(t.server_ips); },
              as_label, "Akamai, 1&1, OVH, Softlayer, ThePlanet, Chinanet, ...");
  print_top10(out, "Networks by traffic", report.by_as,
              [](const core::AsTally& t) { return t.bytes; }, as_label,
              "Akamai, Google, Hetzner, OVH, VKontakte, Kabel Deu., ...");
  print_top10(out, "Networks by server traffic", report.by_as,
              [](const core::AsTally& t) { return t.server_bytes; }, as_label,
              "Akamai, Google, Hetzner, VKontakte, Leaseweb, Limelight, ...");
}

}  // namespace

const Spec tab2_top10{
    "tab2_top10",
    "Table 2: top-10 contributors (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
