// Figure 3 — percentage of observed IPs per country (week 45).
//
// The paper's world map shades countries by their share of the IPs seen
// at the IXP; traffic arrives from every country except a handful of
// uninhabited territories. We print the bucketed histogram the map
// encodes plus the head of the distribution.
#include <algorithm>
#include <vector>

#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

void print(const Context& /*ctx*/, const WeekInput& in, std::ostream& out) {
  const auto& report = in.report;

  std::vector<std::pair<geo::CountryCode, std::size_t>> countries(
      report.by_country.size());
  std::size_t total_ips = 0;
  std::size_t i = 0;
  for (const auto& [code, tally] : report.by_country) {
    countries[i++] = {code, tally.ips};
    total_ips += tally.ips;
  }
  std::sort(countries.begin(), countries.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  // The map's legend buckets.
  struct Bucket {
    const char* label;
    double lo, hi;
    std::size_t count = 0;
  };
  Bucket buckets[] = {{"> 0 to 0.1%", 0.0, 0.001},
                      {"0.1 to 1%", 0.001, 0.01},
                      {"1 to 2%", 0.01, 0.02},
                      {"2 to 5%", 0.02, 0.05},
                      {"more than 5%", 0.05, 1.01}};
  for (const auto& [code, ips] : countries) {
    const double share = static_cast<double>(ips) / static_cast<double>(total_ips);
    for (auto& bucket : buckets) {
      if (share > bucket.lo && share <= bucket.hi) {
        ++bucket.count;
        break;
      }
    }
  }

  util::Table legend{"Countries per map bucket"};
  legend.header({"IP share bucket", "countries"});
  for (const auto& bucket : buckets)
    legend.row({bucket.label, std::to_string(bucket.count)});
  legend.print(out);

  util::Table head{"\nTop-15 countries by observed IPs"};
  head.header({"country", "IPs", "share"});
  for (std::size_t k = 0; k < std::min<std::size_t>(15, countries.size()); ++k) {
    head.row({countries[k].first.to_string(),
              util::with_thousands(countries[k].second),
              util::percent(static_cast<double>(countries[k].second) /
                            static_cast<double>(total_ips))});
  }
  head.print(out);

  out << "\ncountries observed: " << report.peering_countries
      << " (paper: 242 of ~250 — all but places like Western Sahara"
         " or the Cocos Islands)\n";
}

}  // namespace

const Spec fig3_geography{
    "fig3_geography",
    "Figure 3: share of observed IPs per country (week 45)",
    Weeks::kWeek45, one_week<print>};

}  // namespace ixp::expcommon
