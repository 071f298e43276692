// Calibration: how accurate are 1:16384-sampled estimates?
//
// The paper's visibility claims rest on sFlow's statistical guarantees
// ("absence of sampling bias", §2.1): a sampled count times the sampling
// rate is an unbiased estimate of the true count, with relative error
// ~1/sqrt(samples). This experiment generates synthetic flow aggregates
// with known ground truth, thins them through the Sampler at several
// rates, and reports the estimation error — including at the paper's
// production rate. DESIGN.md ablation #1's two thinning paths are
// cross-checked here as well. It reads no week and no model.
#include <cmath>
#include <vector>

#include "exp_common.hpp"
#include "sflow/sampler.hpp"
#include "util/rng.hpp"

namespace ixp::expcommon {
namespace {

class CalibrationSampling final : public Experiment {
 public:
  using Experiment::Experiment;

  void finish() override {
    util::Rng rng{0x5a3b17};
    // A member-port-like aggregate: heavy-tailed flow sizes.
    constexpr std::size_t kFlows = 20000;
    std::vector<std::uint64_t> flow_packets(kFlows);
    std::uint64_t true_packets = 0;
    for (auto& packets : flow_packets) {
      packets = static_cast<std::uint64_t>(rng.next_pareto(40.0, 1.2));
      if (packets > 50'000'000) packets = 50'000'000;
      true_packets += packets;
    }

    util::Table table{"Relative error of packet-count estimates (20 trials)"};
    table.header({"sampling rate", "mean samples", "mean |error|",
                  "max |error|", "theory ~1/sqrt(n)"});
    for (const std::uint32_t rate : {256u, 1024u, 4096u, 16384u, 65536u}) {
      const sflow::Sampler sampler{rate};
      double error_sum = 0.0;
      double error_max = 0.0;
      double samples_sum = 0.0;
      constexpr int kTrials = 20;
      for (int trial = 0; trial < kTrials; ++trial) {
        std::uint64_t sampled = 0;
        for (const std::uint64_t packets : flow_packets)
          sampled += sampler.sample_flow(rng, packets);
        const double estimate = static_cast<double>(sampled) * rate;
        const double error =
            std::fabs(estimate - static_cast<double>(true_packets)) /
            static_cast<double>(true_packets);
        error_sum += error;
        error_max = std::max(error_max, error);
        samples_sum += static_cast<double>(sampled);
      }
      const double mean_samples = samples_sum / kTrials;
      table.row({"1:" + std::to_string(rate), util::compact(mean_samples),
                 util::percent(error_sum / kTrials, 3),
                 util::percent(error_max, 3),
                 util::percent(1.0 / std::sqrt(mean_samples), 3)});
    }
    table.print(out);

    // Ablation #1: binomial thinning vs per-packet Bernoulli at 1:16384.
    const sflow::Sampler paper_rate;
    constexpr std::uint64_t kPackets = 3'000'000;
    constexpr int kTrials = 40;
    double binomial_mean = 0.0;
    double bernoulli_mean = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      binomial_mean +=
          static_cast<double>(paper_rate.sample_flow(rng, kPackets));
      std::uint64_t count = 0;
      for (std::uint64_t p = 0; p < kPackets; ++p)
        count += paper_rate.sample_packet(rng) ? 1 : 0;
      bernoulli_mean += static_cast<double>(count);
    }
    binomial_mean /= kTrials;
    bernoulli_mean /= kTrials;
    const double expectation =
        static_cast<double>(kPackets) / paper_rate.rate();
    out << "\nAblation (1:16384, 3M-packet flow, " << kTrials
        << " trials):\n";
    out << "  expectation:           " << util::fixed(expectation, 1)
        << " samples\n";
    out << "  binomial thinning:     " << util::fixed(binomial_mean, 1)
        << "\n";
    out << "  per-packet Bernoulli:  " << util::fixed(bernoulli_mean, 1)
        << "\n";
    out << "Both paths are unbiased; the binomial path is the one the\n"
           "workload generator uses (it is ~4 orders of magnitude\n"
           "cheaper at production packet volumes — see micro_sflow).\n";
  }
};

}  // namespace

const Spec calibration_sampling{
    .id = "calibration_sampling",
    .title = "Calibration: sampling estimation accuracy",
    .weeks = Weeks::kNone,
    .make = make<CalibrationSampling>};

}  // namespace ixp::expcommon
