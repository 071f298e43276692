// Shared scaffolding for the exp_* experiment binaries.
//
// Each binary reproduces one table or figure of the paper. The synthetic
// Internet runs at a configurable fraction of the paper's measured
// volumes:
//   IXPSCOPE_VOLUME=<double>   population/traffic scale (default 1/256)
//   IXPSCOPE_QUICK=1           tiny test-scale run (smoke mode)
// Every binary prints the scale header so the "measured" columns can be
// compared against the paper's absolute numbers.
//
// All bench binaries share the uniform command line of
// bench::BenchArgs (`--json PATH --iters N --threads N`): every week
// runs through the parallel engine, --threads sets its worker count
// (the report is identical for any count), --iters repeats
// each week that many times, --json records per-week timing as a
// bench-v1 trajectory document.
#pragma once

#include <memory>
#include <string>

#include "analysis/study.hpp"
#include "bench_json.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace ixp::expcommon {

struct Context {
  gen::ScaleConfig cfg;
  std::unique_ptr<analysis::Study> study;
  double volume = 1.0;   // population scale vs. paper
  bool quick = false;
  bench::BenchArgs args;
  /// Per-week timing trajectory; non-null when --json was given.
  std::shared_ptr<bench::Suite> timeline;

  /// Builds the model per environment configuration and prints the
  /// scale banner for `experiment`.
  static Context create(const std::string& experiment);

  /// As above, but parses the uniform bench command line first.
  static Context create(const std::string& experiment, int argc, char** argv);

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

  /// Formats "<measured>  (paper: <paper>, scaled: <paper x scale>)".
  [[nodiscard]] static std::string scaled_row(double measured, double paper,
                                              double scale);
};

}  // namespace ixp::expcommon
