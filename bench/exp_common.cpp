#include "exp_common.hpp"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/parallel_analyzer.hpp"

namespace ixp::expcommon {

namespace {

/// IXPSCOPE_VOLUME, whole-value parsed as `ixpscope --volume` is: trailing
/// junk or a value outside (0, 1] exits 2.
double volume_from_env() {
  const char* env = std::getenv("IXPSCOPE_VOLUME");
  if (env == nullptr) return 1.0 / 256.0;
  const char* end = env + std::strlen(env);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc{} || ptr != end || !(v > 0.0 && v <= 1.0)) {
    std::cerr << "invalid number for IXPSCOPE_VOLUME: '" << env << "'\n";
    std::exit(2);
  }
  return v;
}

}  // namespace

Context::Context(bench::BenchArgs bench_args, bool build_model)
    : volume(volume_from_env()),
      quick(std::getenv("IXPSCOPE_QUICK") != nullptr),
      cfg(quick ? gen::ScaleConfig::test() : gen::ScaleConfig::bench(volume)),
      args(std::move(bench_args)),
      server_churn(cfg.first_week, cfg.last_week) {
  if (!args.json_path.empty())
    timeline = std::make_unique<bench::Suite>("exp_paper", args);
  if (!build_model) return;

  std::ostringstream lines;
  lines << "scale: " << (quick ? "QUICK (test preset)" : "bench")
        << "  volume=" << (quick ? 0.0 : volume)
        << "  weekly-server-target="
        << util::compact(static_cast<double>(cfg.weekly_server_ips))
        << " (paper: 1.5M)"
        << "  ases=" << util::compact(static_cast<double>(cfg.as_count))
        << "  prefixes=" << util::compact(static_cast<double>(cfg.prefix_count))
        << "\n";

  const auto t0 = std::chrono::steady_clock::now();
  study = std::make_unique<analysis::Study>(cfg);
  const auto t1 = std::chrono::steady_clock::now();
  lines << "model: " << model().servers().size() << " servers, "
        << model().orgs().size() << " orgs, built in "
        << std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count()
        << " ms\n";
  header = lines.str();
}

core::WeeklyReport Context::run_week(int week) const {
  core::VantagePoint vp = study->vantage();
  const classify::ChainFetcher fetch = study->fetcher(week);

  // The report is identical at every thread count (merge is a monoid),
  // so repeats and threading only change wall-clock, never the output.
  const std::uint64_t repeats = args.iters > 0 ? args.iters : 1;
  core::WeeklyReport report;
  std::uint64_t samples = 0;
  const auto t0 = std::chrono::steady_clock::now();
  core::ParallelOptions options;
  options.threads = static_cast<unsigned>(args.threads);
  core::ParallelAnalyzer analyzer{vp, options};
  for (std::uint64_t r = 0; r < repeats; ++r) {
    gen::WeekSource source = study->week(week);
    report = analyzer.analyze(week, source, fetch);
    samples += source.truth().total_samples;
  }
  const auto t1 = std::chrono::steady_clock::now();

  if (timeline) {
    bench::BenchResult timing;
    timing.name = "week" + std::to_string(week);
    timing.iters = repeats;
    timing.threads = args.threads;
    timing.items = samples;
    timing.seconds = std::chrono::duration<double>(t1 - t0).count();
    timeline->add(std::move(timing));
  }
  return report;
}

}  // namespace ixp::expcommon
