// Figure 5 — make-up of the server-related traffic attributed to the
// stable and recurrent server pools, per region, weeks 35-51.
//
// Paper: the stable pool (only ~30% of the weekly server IPs) carries
// more than 60% of each week's server traffic; the recurrent pool's share
// grows but stays under 30%; the CN pools are traffic-invisible, while
// for US and RU the stable pool carries nearly all of the region's
// server traffic.
#include <algorithm>

#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

class Fig5TrafficChurn final : public Experiment {
 public:
  using Experiment::Experiment;

  void observe(const WeekInput& in) override {
    out << "week " << in.week << " ingested\n";
  }

  void finish() override {
    const auto weeks = ctx_.server_churn.breakdown();
    util::Table table{"\nWeekly server-traffic shares by pool"};
    table.header({"week", "stable pool", "recurrent pool", "fresh"});
    for (const auto& w : weeks) {
      const double total = w.active_bytes > 0 ? w.active_bytes : 1.0;
      table.row({std::to_string(w.week),
                 util::percent(w.stable_bytes / total, 1),
                 util::percent(w.recurrent_bytes / total, 1),
                 util::percent(w.fresh_bytes / total, 1)});
    }
    table.print(out);
    out << "paper: stable pool >60% of server traffic every week;"
           " recurrent <30%\n";

    const auto& last = weeks.back();
    util::Table regions{"\nWeek-51 regional make-up"};
    regions.header({"region", "share of server traffic",
                    "stable share within region", "paper note"});
    static const char* notes[] = {
        "DE large", "stable pool carries ~all US traffic",
        "stable pool carries ~all RU traffic", "traffic-invisible",
        "rest of world"};
    for (std::size_t r = 0; r < geo::kAllRegions.size(); ++r) {
      const double region_total = last.active_bytes_by_region[r];
      regions.row(
          {geo::to_string(geo::kAllRegions[r]),
           util::percent(region_total / std::max(1.0, last.active_bytes), 1),
           util::percent(last.stable_bytes_by_region[r] /
                             std::max(1.0, region_total),
                         1),
           notes[r]});
    }
    regions.print(out);
  }
};

}  // namespace

const Spec fig5_traffic_churn{
    .id = "fig5_traffic_churn",
    .title = "Figure 5: server-traffic churn by region (weeks 35-51)",
    .weeks = Weeks::kAll,
    .make = make<Fig5TrafficChurn>,
    .server_churn = true};

}  // namespace ixp::expcommon
