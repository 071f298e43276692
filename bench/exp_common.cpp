#include "exp_common.hpp"

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "core/parallel_analyzer.hpp"

namespace ixp::expcommon {

Context Context::create(const std::string& experiment, int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  Context ctx = create(experiment);
  ctx.args = std::move(args);
  if (!ctx.args.json_path.empty())
    ctx.timeline = std::make_shared<bench::Suite>(experiment, ctx.args);
  return ctx;
}

Context Context::create(const std::string& experiment) {
  Context ctx;
  ctx.volume = 1.0 / 256.0;
  if (const char* env = std::getenv("IXPSCOPE_VOLUME")) {
    const double v = std::atof(env);
    if (v > 0.0 && v <= 1.0) ctx.volume = v;
  }
  ctx.quick = std::getenv("IXPSCOPE_QUICK") != nullptr;
  ctx.cfg = ctx.quick ? gen::ScaleConfig::test()
                      : gen::ScaleConfig::bench(ctx.volume);

  util::print_banner(std::cout, experiment);
  std::cout << "scale: " << (ctx.quick ? "QUICK (test preset)" : "bench")
            << "  volume=" << (ctx.quick ? 0.0 : ctx.volume)
            << "  weekly-server-target=" << util::compact(static_cast<double>(
                   ctx.cfg.weekly_server_ips))
            << " (paper: 1.5M)"
            << "  ases=" << util::compact(static_cast<double>(ctx.cfg.as_count))
            << "  prefixes=" << util::compact(static_cast<double>(ctx.cfg.prefix_count))
            << "\n";

  const auto t0 = std::chrono::steady_clock::now();
  ctx.study = std::make_unique<analysis::Study>(ctx.cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const gen::InternetModel& model = ctx.model();
  std::cout << "model: " << model.servers().size() << " servers, "
            << model.orgs().size() << " orgs, built in "
            << std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count()
            << " ms\n";
  return ctx;
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

std::string Context::scaled_row(double measured, double paper, double scale) {
  return util::compact(measured) + "  (paper " + util::compact(paper) +
         ", at this scale ~" + util::compact(paper * scale) + ")";
}

}  // namespace ixp::expcommon
