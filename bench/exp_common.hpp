// Shared scaffolding for the paper's experiments, which exp_paper.cpp
// drives. Each bench/exp_<id>.cpp reproduces one table or figure of the
// paper. The synthetic Internet runs at a configurable fraction of the
// paper's measured volumes:
//   IXPSCOPE_VOLUME=<double>   population/traffic scale in (0, 1]
//                              (default 1/256)
//   IXPSCOPE_QUICK=1           tiny test-scale run (smoke mode)
// Every section that reads a week prints the scale header so the
// "measured" columns can be compared against the paper's absolute numbers.
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/attribution.hpp"
#include "analysis/churn_tracker.hpp"
#include "analysis/study.hpp"
#include "bench_json.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace ixp::expcommon {

struct Context {
  double volume = 1.0;   // population scale vs. paper
  bool quick = false;
  gen::ScaleConfig cfg;
  bench::BenchArgs args;
  /// Null when no selected experiment reads a week.
  std::unique_ptr<analysis::Study> study;
  /// Per-week timing trajectory; non-null when --json was given.
  std::unique_ptr<bench::Suite> timeline;
  /// The scale and model lines that open every section reading a week.
  std::string header;
  /// Churn of each analysed week's server IPs (Figs. 4 and 5 read the
  /// same one), fed by exp_paper when a selected experiment asks for it.
  analysis::ChurnTracker server_churn;

  /// Reads the environment (exits 2 on an invalid IXPSCOPE_VOLUME) and,
  /// if `build_model`, builds the study and fills `header`.
  Context(bench::BenchArgs args, bool build_model);

  [[nodiscard]] const gen::InternetModel& model() const {
    return study->model();
  }
  [[nodiscard]] const gen::Workload& workload() const {
    return study->workload();
  }

  /// Runs the full measurement pipeline for one week, pulled from the
  /// generator batch by batch.
  [[nodiscard]] core::WeeklyReport run_week(int week) const;

  /// Server-population scale vs. the paper's 1.5M weekly server IPs.
  [[nodiscard]] double server_scale() const {
    return static_cast<double>(cfg.weekly_server_ips) / 1'500'000.0;
  }
  /// Traffic/IP scale vs. the paper's volumes.
  [[nodiscard]] double ip_scale() const {
    return static_cast<double>(cfg.background_ip_pool) / 200'000'000.0;
  }
};

/// What exp_paper hands an experiment for one week it reads.
struct WeekInput {
  int week = 0;
  const core::WeeklyReport& report;
  /// The week's second pass, attributing every peering byte to the
  /// report's server IPs (all in org 0). Null unless an experiment that
  /// reads it (Spec::server_pass) is selected.
  const analysis::AttributionPass* servers = nullptr;
};

/// One table or figure of the paper. It takes the weeks it reads one at
/// a time, in ascending order, and prints its section's body into `out`.
class Experiment {
 public:
  explicit Experiment(const Context& ctx) : ctx_(ctx) {}
  virtual ~Experiment() = default;
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Passes of its own to feed from `week`'s second generation, beside
  /// the shared server pass. Called just before that week's observe().
  virtual std::vector<analysis::AttributionPass*> passes(int /*week*/) {
    return {};
  }
  virtual void observe(const WeekInput& /*in*/) {}
  /// Prints what needs every week; called once, after the last.
  virtual void finish() {}

  std::ostringstream out;

 protected:
  const Context& ctx_;
};

/// Which weeks an experiment reads.
enum class Weeks { kNone, kWeek45, kAll };

/// One experiment as exp_paper knows it.
struct Spec {
  std::string_view id;     ///< bench/exp_<id>.cpp
  std::string_view title;  ///< the section's banner
  Weeks weeks;
  std::unique_ptr<Experiment> (*make)(const Context&);
  bool server_pass = false;   ///< reads WeekInput::servers
  bool server_churn = false;  ///< reads Context::server_churn
};

/// Builds an experiment of type T, for Spec::make.
template <class T>
std::unique_ptr<Experiment> make(const Context& ctx) {
  return std::make_unique<T>(ctx);
}

/// An experiment that reads week 45 alone and prints its whole section
/// from it, as `Print(ctx, week, out)`; for Spec::make.
template <void (*Print)(const Context&, const WeekInput&, std::ostream&)>
std::unique_ptr<Experiment> one_week(const Context& ctx) {
  class OneWeek final : public Experiment {
   public:
    using Experiment::Experiment;
    void observe(const WeekInput& in) override { Print(ctx_, in, out); }
  };
  return std::make_unique<OneWeek>(ctx);
}

// One per bench/exp_<id>.cpp, in id order.
extern const Spec calibration_sampling, ext_server_to_server, fig1_filtering,
    fig2_server_share, fig3_geography, fig4_churn, fig5_traffic_churn,
    fig6_heterogeneity, fig7_links, sec22_dissection, sec24_metadata,
    sec31_crossval, sec33_blindspots, sec42_cases, sec51_clustering,
    tab1_summary, tab2_top10, tab3_local_global;

}  // namespace ixp::expcommon
