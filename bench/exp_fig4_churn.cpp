// Figure 4 — weekly churn of server IPs (a), per region (b), and of the
// ASes hosting servers (c), weeks 35-51.
//
// Paper: by week 51 the stable pool (seen week-in, week-out) is ~30% of
// the weekly server IPs, the recurrent pool ~60%, first-seen ~10% and
// shrinking; DE contributes about half of the stable pool while CN's is
// vanishingly small; for ASes the stable pool is ~70%.
#include <algorithm>

#include "exp_common.hpp"

namespace ixp::expcommon {
namespace {

class Fig4Churn final : public Experiment {
 public:
  explicit Fig4Churn(const Context& ctx)
      : Experiment(ctx), ases_(ctx.cfg.first_week, ctx.cfg.last_week) {}

  void observe(const WeekInput& in) override {
    for (const auto& obs : in.report.servers) {
      if (obs.asn)
        ases_.observe(obs.asn->value(), in.week, geo::region_of(obs.country),
                      obs.bytes);
    }
    out << "week " << in.week << ": " << in.report.server_ips
        << " server IPs, " << in.report.server_ases << " ASes\n";
  }

  void finish() override {
    const auto server_weeks = ctx_.server_churn.breakdown();
    util::Table fig4a{"\nFig 4(a): weekly server-IP pools"};
    fig4a.header({"week", "active", "stable", "recurrent", "fresh"});
    for (const auto& w : server_weeks) {
      const double active = static_cast<double>(w.active);
      fig4a.row({std::to_string(w.week), util::with_thousands(w.active),
                 util::percent(w.stable / active, 1),
                 util::percent(w.recurrent / active, 1),
                 util::percent(w.fresh / active, 1)});
    }
    fig4a.print(out);
    const auto& last = server_weeks.back();
    out << "paper, week 51: stable ~30%, recurrent ~60%, fresh ~10%\n";

    util::Table fig4b{"\nFig 4(b): week-51 stable/recurrent pools by region"};
    fig4b.header({"region", "stable share", "recurrent share", "paper note"});
    static const char* notes[] = {
        "DE ~ half of the stable pool", "US sizable", "RU slightly above US",
        "CN vanishingly small", "rest of world"};
    for (std::size_t r = 0; r < geo::kAllRegions.size(); ++r) {
      fig4b.row({geo::to_string(geo::kAllRegions[r]),
                 util::percent(static_cast<double>(last.stable_by_region[r]) /
                                   static_cast<double>(last.stable), 1),
                 util::percent(static_cast<double>(last.recurrent_by_region[r]) /
                                   std::max<double>(1.0, static_cast<double>(
                                                             last.recurrent)),
                               1),
                 notes[r]});
    }
    fig4b.print(out);

    const auto as_weeks = ases_.breakdown();
    util::Table fig4c{"\nFig 4(c): weekly pools of ASes hosting servers"};
    fig4c.header({"week", "active", "stable", "recurrent", "fresh"});
    const auto& cfg = ctx_.cfg;
    for (const auto& w : as_weeks) {
      if ((w.week - cfg.first_week) % 4 != 0 && w.week != cfg.last_week)
        continue;
      const double active = static_cast<double>(w.active);
      fig4c.row({std::to_string(w.week), util::with_thousands(w.active),
                 util::percent(w.stable / active, 1),
                 util::percent(w.recurrent / active, 1),
                 util::percent(w.fresh / active, 1)});
    }
    fig4c.print(out);
    out << "paper, week 51 (ASes): stable ~70%, fresh miniscule\n";
  }

 private:
  analysis::ChurnTracker ases_;
};

}  // namespace

const Spec fig4_churn{
    .id = "fig4_churn",
    .title = "Figure 4: churn of server IPs and server-hosting ASes (weeks "
             "35-51)",
    .weeks = Weeks::kAll,
    .make = make<Fig4Churn>,
    .server_churn = true};

}  // namespace ixp::expcommon
