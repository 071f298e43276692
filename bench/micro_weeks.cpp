// Longitudinal-driver benchmarks: what the distributed map-reduce and the
// provenance-gated incremental re-analysis cost (DESIGN.md §16). One
// binary emits the ixpscope-bench-v1 JSON trajectory:
//
//   build/bench/micro_weeks --json BENCH_weeks.json
//
// Cases (items are observation weeks):
//   weeks_cold             compute every week of the range into a fresh
//                          store — the baseline everything below beats
//   weeks_resume_noop      re-run over a warm store with matching
//                          provenance: the incremental no-op, pure
//                          decode, no analysis
//   weeks_stale_recompute  re-run after the model fingerprint changed:
//                          quarantine every snapshot and recompute —
//                          the invalidation worst case
//   weeks_jobs2_cold       the same cold range through the forked
//                          map-reduce driver with --jobs 2 (on 1-core CI
//                          this measures fork/flock/fold overhead, not
//                          speedup — the contract is correctness)
//   merge_two_stores       fold a two-store partition of the range into
//                          a fresh output store (complete-copy path)
//
// The binary exits nonzero when the incremental contract regresses: a
// no-op re-run must cost < 5% of the cold run per week, compared as the
// medians of three alternating cold and no-op runs timed for the gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_json.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "ingest/ingest_source.hpp"
#include "store/store_merge.hpp"
#include "store/weeks_mapreduce.hpp"
#include "store/weeks_runner.hpp"

namespace {

using namespace ixp;

constexpr int kFromWeek = 44;
constexpr int kToWeek = 47;
constexpr int kWeekCount = kToWeek - kFromWeek + 1;

class OwnedWeekSource final : public ingest::IngestSource {
 public:
  explicit OwnedWeekSource(std::vector<sflow::FlowSample> samples)
      : samples_(std::move(samples)), span_(samples_, 512) {}

  ingest::SourceStatus next_batch(ingest::SampleBatch& out) override {
    return span_.next_batch(out);
  }
  std::vector<std::unique_ptr<ingest::IngestSource>> split(
      std::size_t want) override {
    return span_.split(want);
  }

 private:
  std::vector<sflow::FlowSample> samples_;
  ingest::SpanSource span_;
};

/// The test-preset structure with 6x its weekly traffic. The test preset
/// keeps sample counts tiny so the *unit* suites stay fast, but at that
/// volume decoding a snapshot is a visible fraction of computing one and
/// the cold/no-op ratio under-reports what real runs see. Scaling only
/// the traffic restores a representative compute-to-metadata ratio while
/// the world build stays cheap.
gen::ScaleConfig bench_scale() {
  gen::ScaleConfig cfg = gen::ScaleConfig::test();
  cfg.weekly_background_samples *= 6;
  cfg.weekly_server_flows *= 6;
  return cfg;
}

struct Fixture {
  std::unique_ptr<gen::InternetModel> model;
  std::unordered_map<net::Asn, net::Locality> locality;
  std::map<int, std::vector<sflow::FlowSample>> week_samples;

  Fixture() : model(std::make_unique<gen::InternetModel>(bench_scale())) {
    std::vector<net::Asn> members;
    for (const auto* m : model->ixp().members_at(kToWeek))
      members.push_back(m->asn);
    locality = model->as_graph().classify(members);
    const gen::Workload workload{*model};
    for (int week = kFromWeek; week <= kToWeek; ++week) {
      auto& samples = week_samples[week];
      workload.generate_week(
          week, [&](const sflow::FlowSample& s) { samples.push_back(s); });
    }
  }

  [[nodiscard]] core::VantagePoint make_vantage() const {
    return core::VantagePoint{model->ixp(),   model->routing(),
                              model->geo_db(), locality,
                              model->dns_db(),
                              dns::PublicSuffixList::builtin(),
                              model->root_store()};
  }

  [[nodiscard]] store::WeeksRunner::SourceFactory source_factory() const {
    return [this](int week) -> std::unique_ptr<ingest::IngestSource> {
      return std::make_unique<OwnedWeekSource>(week_samples.at(week));
    };
  }

  [[nodiscard]] store::WeeksRunner::FetcherFactory fetcher_factory() const {
    return [this](int week) -> classify::ChainFetcher {
      return [this, week](net::Ipv4Addr addr, int times) {
        return model->fetch_chains(addr, times, week);
      };
    };
  }

  /// One driver pass over [from, to] into `dir`.
  [[nodiscard]] store::WeeksResult run(const std::string& dir, int from,
                                       int to,
                                       std::uint64_t model_fingerprint = 0,
                                       int jobs = 1) const {
    auto vp = make_vantage();
    core::ParallelOptions popt;
    popt.threads = 1;
    core::ParallelAnalyzer analyzer{vp, popt};
    store::WeeksRunner runner{vp, analyzer, store::SnapshotStore{dir}};
    store::MapReduceOptions options;
    options.weeks.from_week = from;
    options.weeks.to_week = to;
    options.weeks.model_fingerprint = model_fingerprint;
    options.jobs = jobs;
    const auto result = store::run_weeks_mapreduce(
        runner, options, source_factory(), fetcher_factory());
    return result.fold;
  }
};

/// A fresh scratch directory per use, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("ixpscope_micro_weeks_" + tag))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Median of a few timings (the upper middle of an even count).
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// The incremental contract (DESIGN.md §16): resuming a warm,
/// provenance-matching store must cost < 5% of computing it cold, per
/// week. Timed on its own rather than read off the suite's cases, whose
/// --iters 1 smoke run times one pass of each: kGatePasses cold runs
/// alternate with as many no-op resumes of one warm store, and their
/// medians compare, so one pass slowed by a neighbour moves neither side.
int check_resume_gate(const Fixture& fx) {
  constexpr int kGatePasses = 3;
  const ScratchDir warm{"gate_warm"};
  if (!fx.run(warm.path(), kFromWeek, kToWeek).ok) {
    std::fprintf(stderr, "FAIL: cannot warm the gate's store\n");
    return 1;
  }
  const auto per_week = [](auto t0, std::size_t weeks) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count() / static_cast<double>(std::max<std::size_t>(1, weeks));
  };
  std::vector<double> cold_s;
  std::vector<double> noop_s;
  for (int pass = 0; pass < kGatePasses; ++pass) {
    {
      const ScratchDir dir{"gate_cold"};
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = fx.run(dir.path(), kFromWeek, kToWeek);
      if (!result.ok) {
        std::fprintf(stderr, "FAIL: cold run failed: %s\n", result.error.c_str());
        return 1;
      }
      cold_s.push_back(per_week(t0, result.weeks_computed));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = fx.run(warm.path(), kFromWeek, kToWeek);
    if (!result.ok || result.weeks_computed != 0) {
      std::fprintf(stderr, "FAIL: no-op run recomputed: %s\n", result.error.c_str());
      return 1;
    }
    noop_s.push_back(per_week(t0, result.weeks_resumed));
  }
  const double ratio = median(noop_s) / median(cold_s);
  std::printf("incremental no-op re-run: %.2f%% of cold per week (medians of %d)\n",
              ratio * 100.0, kGatePasses);
  if (ratio > 0.05) {
    std::fprintf(stderr,
                 "FAIL: no-op resume at %.1f%% of cold (expected < 5%%) — "
                 "is the provenance gate decoding or recomputing?\n",
                 ratio * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"weeks", args};
  const Fixture fx;

  suite.run_case("weeks_cold", 3, [&](std::uint64_t iters, int) {
    std::uint64_t weeks = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      const ScratchDir dir{"cold_" + std::to_string(it)};
      const auto result = fx.run(dir.path(), kFromWeek, kToWeek);
      if (!result.ok) {
        std::fprintf(stderr, "cold run failed: %s\n", result.error.c_str());
        break;
      }
      weeks += result.weeks_computed;
    }
    return weeks;
  });

  {
    // One warm store, resumed over and over: the incremental no-op.
    const ScratchDir dir{"noop"};
    if (!fx.run(dir.path(), kFromWeek, kToWeek).ok) return 1;
    suite.run_case("weeks_resume_noop", 16, [&](std::uint64_t iters, int) {
      std::uint64_t weeks = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        const auto result = fx.run(dir.path(), kFromWeek, kToWeek);
        if (!result.ok || result.weeks_computed != 0) {
          std::fprintf(stderr, "no-op run recomputed: %s\n",
                       result.error.c_str());
          break;
        }
        weeks += result.weeks_resumed;
      }
      return weeks;
    });
  }

  {
    // Alternate the model fingerprint every pass: each run finds every
    // snapshot stale, quarantines it, and recomputes the whole range.
    const ScratchDir dir{"stale"};
    if (!fx.run(dir.path(), kFromWeek, kToWeek, /*fingerprint=*/0).ok)
      return 1;
    std::uint64_t pass = 0;
    suite.run_case("weeks_stale_recompute", 2, [&](std::uint64_t iters, int) {
      std::uint64_t weeks = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        const auto result =
            fx.run(dir.path(), kFromWeek, kToWeek, /*fingerprint=*/++pass);
        if (!result.ok ||
            result.weeks_stale != static_cast<std::size_t>(kWeekCount)) {
          std::fprintf(stderr, "stale run did not invalidate\n");
          break;
        }
        weeks += result.weeks_computed;
        // Quarantined snapshots pile up; sweep them so the directory walk
        // stays representative.
        for (const auto& entry :
             std::filesystem::directory_iterator(dir.path())) {
          const auto name = entry.path().filename().string();
          if (name.find("quarantined") != std::string::npos ||
              name.find("stale-provenance") != std::string::npos) {
            std::error_code ec;
            std::filesystem::remove(entry.path(), ec);
          }
        }
      }
      return weeks;
    });
  }

  suite.run_case("weeks_jobs2_cold", 2, [&](std::uint64_t iters, int) {
    std::uint64_t weeks = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      const ScratchDir dir{"jobs2_" + std::to_string(it)};
      const auto result =
          fx.run(dir.path(), kFromWeek, kToWeek, /*fingerprint=*/0,
                 /*jobs=*/2);
      if (!result.ok) {
        std::fprintf(stderr, "jobs=2 run failed: %s\n", result.error.c_str());
        break;
      }
      weeks += result.weeks.size();
    }
    return weeks;
  });

  {
    // A two-store partition of the range, merged into a fresh output.
    const ScratchDir a{"merge_a"};
    const ScratchDir b{"merge_b"};
    const int mid = kFromWeek + kWeekCount / 2 - 1;
    if (!fx.run(a.path(), kFromWeek, mid).ok) return 1;
    if (!fx.run(b.path(), mid + 1, kToWeek).ok) return 1;
    suite.run_case("merge_two_stores", 8, [&](std::uint64_t iters, int) {
      std::uint64_t weeks = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        const ScratchDir out{"merge_out"};
        store::MergeOptions options;
        options.inputs = {a.path(), b.path()};
        options.out = out.path();
        const auto result = store::merge_stores(options);
        if (!result.ok) {
          std::fprintf(stderr, "merge failed: %s\n", result.error.c_str());
          break;
        }
        weeks += result.weeks.size();
      }
      return weeks;
    });
  }

  suite.flush();
  return check_resume_gate(fx);
}
