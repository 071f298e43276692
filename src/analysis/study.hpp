// Study — one synthetic Internet set up for measurement.
//
// Every front end (the CLI, the experiment binaries, the examples, the
// benchmarks and the store and engine tests) starts the same way: build
// the model at one scale, wrap it in a workload, classify the AS graph's
// locality against the IXP's members at the last week of the period, and
// hand the public databases to a VantagePoint with a fetcher that serves
// the model's certificate chains for one week. Study is that sequence,
// once. It owns the model, the workload and the locality map, and the
// vantage points and week sources it hands out borrow them, so a Study
// stays where it is built: it is neither copyable nor movable.
#pragma once

#include <unordered_map>

#include "classify/https_prober.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"

namespace ixp::analysis {

class Study {
 public:
  explicit Study(const gen::ScaleConfig& cfg);

  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  [[nodiscard]] const gen::InternetModel& model() const noexcept {
    return model_;
  }
  [[nodiscard]] const gen::Workload& workload() const noexcept {
    return workload_;
  }

  /// A vantage point over the model's public databases and each AS's
  /// locality against the members at the model's last week.
  [[nodiscard]] core::VantagePoint vantage() const;

  /// The active measurement of `week`: the model's certificate chains.
  [[nodiscard]] classify::ChainFetcher fetcher(int week) const;

  /// The generated stream of `week`, pulled batch by batch.
  [[nodiscard]] gen::WeekSource week(int week) const {
    return gen::WeekSource{workload_, week};
  }

 private:
  gen::InternetModel model_;
  gen::Workload workload_;
  std::unordered_map<net::Asn, net::Locality> locality_;
};

}  // namespace ixp::analysis
