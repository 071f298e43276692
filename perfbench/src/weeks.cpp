// Workload `weeks`: a 4-week longitudinal run (weeks 44-47, volume 1/4096)
// through store::WeeksRunner, cold and then resumed.
//
// Set-up builds the model and generates the four weeks into memory. Each
// measured pass runs the range into a fresh snapshot store (cold: reduce,
// absorb, finish, encode, commit per week), then runs it again over that
// store kResumesPerPass times (resume: scan, validate, decode,
// longitudinal fold, and no analysis at all). Each resume pass
// must resume all four weeks, compute none, and reproduce the cold pass's
// reports and longitudinal summary byte for byte.
//
// WeeksRunner::run is one call, so the traced run re-drives its sub-calls
// (reduce, encode, absorb, finish, commit; scan, open, decode, fold) on
// the same inputs and the store it wrote.
#include <iostream>
#include <optional>

#include "analysis/longitudinal.hpp"
#include "core/parallel_analyzer.hpp"
#include "store/snapshot_codec.hpp"
#include "store/snapshot_store.hpp"
#include "store/weeks_runner.hpp"
#include "util/fnv.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ixp;

constexpr int kFirstWeek = 44;
constexpr int kLastWeek = 47;
constexpr std::size_t kWeeks = kLastWeek - kFirstWeek + 1;
constexpr double kVolume = 1.0 / 4096.0;
constexpr std::size_t kBatch = 512;
/// Resume passes after each cold pass: a resume is short, so the median
/// needs more of them.
constexpr int kResumesPerPass = 2;
/// About how long one cold pass and its resumes take on a 4-vCPU x86-64 VM.
constexpr double kPassSeconds = 1.2;

struct Inputs {
  World world;
  std::vector<std::vector<sflow::FlowSample>> weeks;  ///< kFirstWeek first
  std::uint64_t samples = 0;
};

Inputs set_up(const Args& args, Tracer& tracer) {
  Inputs in;
  in.world = build_world(scale_for(args, kVolume), tracer);
  for (int week = kFirstWeek; week <= kLastWeek; ++week) {
    tracer.set_context(0, week);
    auto span = tracer.span("gen.generate");
    std::vector<sflow::FlowSample>& samples = in.weeks.emplace_back();
    in.world.workload->generate_week(
        week, [&](const sflow::FlowSample& s) { samples.push_back(s); });
    in.samples += samples.size();
  }
  return in;
}

/// The ingest half of the snapshots' provenance: generated weeks fed as
/// in-memory spans in fixed batches.
std::uint64_t ingest_fingerprint() {
  util::Fnv1a hash;
  hash.mix(std::string_view{"perfbench-generated-week-span"});
  hash.mix(std::uint64_t{kBatch});
  return hash.value();
}

store::WeeksOptions weeks_options(const Inputs& in) {
  store::WeeksOptions options;
  options.from_week = kFirstWeek;
  options.to_week = kLastWeek;
  options.model_fingerprint = in.world.model->config().fingerprint();
  options.ingest_fingerprint = ingest_fingerprint();
  return options;
}

/// What the cold pass produced, for the resume pass and later passes.
struct Reference {
  std::vector<std::vector<std::byte>> reports;  ///< encode_report per week
  analysis::LongitudinalSummary longitudinal;
};

struct PassTimes {
  double cold_s = 0.0;
  std::vector<double> resume_s;  ///< one per resume pass
};

/// One cold pass into a fresh store at `dir`, then `resumes` resume passes
/// over it, all checked. Sets `reference` from the first cold pass.
PassTimes run_pass(const Inputs& in, const std::string& dir, Tracer& tracer,
                   Result& result, std::optional<Reference>& reference,
                   bool break_reference, int resumes,
                   FetchCounter* fetches = nullptr) {
  remove_all(dir);
  core::ParallelOptions options;
  options.threads = 1;
  core::ParallelAnalyzer analyzer{*in.world.vantage, options};
  std::size_t sources_made = 0;
  const auto make_source = [&](int week) -> std::unique_ptr<ingest::IngestSource> {
    ++sources_made;
    return std::make_unique<ingest::SpanSource>(
        in.weeks[static_cast<std::size_t>(week - kFirstWeek)], kBatch);
  };
  const auto make_fetcher = [&](int week) { return in.world.fetcher(week, fetches); };
  const store::WeeksOptions weeks = weeks_options(in);
  const auto run = [&](double& seconds) {
    store::WeeksRunner runner{*in.world.vantage, analyzer, store::SnapshotStore{dir}};
    auto span = tracer.span("store.weeks_run");
    store::WeeksResult out = runner.run(weeks, make_source, make_fetcher);
    seconds = span.stop();
    return out;
  };
  const auto check_reports = [&](const store::WeeksResult& pass, const char* what) {
    result.check(pass.weeks.size() == reference->reports.size(),
                 std::string{what} + " pass week count differs");
    for (std::size_t i = 0; i < std::min(pass.weeks.size(), reference->reports.size());
         ++i) {
      result.check(!pass.weeks[i].report.degraded,
                   std::string{what} + " pass report degraded");
      result.check(store::SnapshotCodec::encode_report(pass.weeks[i].report) ==
                       reference->reports[i],
                   std::string{what} + " pass report of week " +
                       std::to_string(pass.weeks[i].week) + " differs");
    }
    result.check(pass.longitudinal == reference->longitudinal,
                 std::string{what} + " pass longitudinal summary differs");
  };

  PassTimes times;
  const store::WeeksResult cold = run(times.cold_s);
  result.attempt(kWeeks);
  result.check(cold.ok, "cold pass failed: " + cold.error);
  result.fail(kWeeks - std::min(kWeeks, cold.weeks_computed),
              "cold pass did not compute every week");
  result.check(cold.quarantined.empty(), "cold pass quarantined snapshots");
  if (!reference) {
    Reference ref;
    for (const store::WeekOutcome& outcome : cold.weeks)
      ref.reports.push_back(store::SnapshotCodec::encode_report(outcome.report));
    ref.longitudinal = cold.longitudinal;
    if (break_reference && !ref.reports.empty())
      ref.reports.front()[ref.reports.front().size() / 2] ^= std::byte{0x5a};
    reference = std::move(ref);
  }
  check_reports(cold, "cold");

  for (int i = 0; i < resumes; ++i) {
    sources_made = 0;
    const store::WeeksResult resumed = run(times.resume_s.emplace_back());
    result.attempt(kWeeks);
    result.check(resumed.ok, "resume pass failed: " + resumed.error);
    result.fail(kWeeks - std::min(kWeeks, resumed.weeks_resumed),
                "resume pass did not resume every week");
    result.check(resumed.weeks_computed == 0 && sources_made == 0,
                 "resume pass computed weeks");
    check_reports(resumed, "resume");
  }
  return times;
}

/// WeeksRunner's cold-week sequence re-driven call by call into a side
/// store, with finish_week's own sub-calls re-driven after each week.
void redrive_cold(const Inputs& in, const std::string& dir, Tracer& tracer,
                  Result& result, const Reference& reference, Layers& layers) {
  remove_all(dir);
  make_dirs(dir);
  const store::SnapshotStore side{dir};
  const store::WeeksOptions weeks = weeks_options(in);
  double observe_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t observed = 0;
  FinishParts parts;
  for (int week = kFirstWeek; week <= kLastWeek; ++week) {
    tracer.set_context(3, week);
    const std::size_t index = static_cast<std::size_t>(week - kFirstWeek);
    auto week_span = tracer.span("week");
    ingest::SpanSource source{in.weeks[index], kBatch};
    core::WeekSession session = in.world.vantage->open_week(week);

    // ParallelAnalyzer::reduce at one thread: one shard, every batch.
    const std::uint64_t rss_before = rss_anon_bytes();
    auto reduce_span = tracer.span("core.reduce");
    core::WeekShard shard = session.make_shard();
    observe_s += timed_observe(shard, source, tracer);
    layers["core.reduce_s"] += reduce_span.stop();
    const std::uint64_t rss_after = rss_anon_bytes();
    observed += shard.samples_observed();
    const auto ips = static_cast<double>(shard.dissector().activity().size());
    layers["core.activity_ips"] = ips;
    layers["core.bytes_per_peering_ip"] =
        static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
        std::max(1.0, ips);
    layers["classify.peering_sample_ratio"] =
        static_cast<double>(shard.counters().of(classify::TrafficClass::kPeering)) /
        static_cast<double>(std::max<std::uint64_t>(1, shard.samples_observed()));

    auto encode_span = tracer.span("store.encode");
    const std::vector<std::byte> shard_bytes = store::SnapshotCodec::encode_shard(shard);
    layers["store.encode_s"] += encode_span.stop();
    std::optional<classify::TrafficDissector> redo;
    {
      auto copy_span = tracer.span("harness.copy_dissector");
      redo.emplace(shard.dissector());
    }
    auto absorb_span = tracer.span("core.absorb");
    session.absorb(std::move(shard));
    layers["core.absorb_s"] += absorb_span.stop();
    auto finish_span = tracer.span("core.finish_week");
    const core::WeeklyReport report = session.finish(in.world.fetcher(week));
    finish_s += finish_span.stop();

    auto encode2_span = tracer.span("store.encode");
    const std::vector<std::byte> report_bytes = store::SnapshotCodec::encode_report(report);
    store::Provenance provenance;
    provenance.format_version = store::kFormatVersion;
    provenance.week = week;
    provenance.model_fingerprint = weeks.model_fingerprint;
    provenance.ingest_fingerprint = weeks.ingest_fingerprint;
    const std::vector<std::byte> provenance_bytes =
        store::SnapshotCodec::encode_provenance(provenance);
    const store::Section sections[] = {
        {store::kShardSection, shard_bytes},
        {store::kReportSection, report_bytes},
        {store::kProvenanceSection, provenance_bytes},
    };
    const std::vector<std::byte> image = store::encode_snapshot(sections);
    layers["store.encode_s"] += encode2_span.stop();
    layers["store.snapshot_bytes"] += static_cast<double>(image.size());

    auto commit_span = tracer.span("store.commit");
    std::string error;
    const bool committed = store::commit_snapshot(side.path_for(week), image, &error);
    layers["store.commit_s"] += commit_span.stop();
    result.check(committed, "re-driven commit failed: " + error);
    result.check(report_bytes == reference.reports[index],
                 "re-driven report of week " + std::to_string(week) +
                     " differs from the cold pass");
    week_span.stop();

    parts += redrive_finish_week(in.world, week, *redo, report, tracer, result);
  }
  emit_finish_parts(parts, finish_s, layers);
  layers["core.observe_ns_per_sample"] =
      observe_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, observed));
}

/// WeeksRunner's resume sequence re-driven over the store the measured
/// passes wrote: scan, then open + validate and decode each week, then the
/// longitudinal fold.
void redrive_resume(const std::string& dir, Tracer& tracer, Result& result,
                    const Reference& reference, Layers& layers) {
  tracer.set_context(4, kFirstWeek);
  const store::SnapshotStore store{dir};
  auto scan_span = tracer.span("store.scan");
  const store::SnapshotStore::ScanResult scan = store.scan();
  layers["store.scan_s"] = scan_span.stop();
  result.check(scan.readable && scan.weeks.size() == kWeeks,
               "re-driven scan did not find every week");

  std::vector<core::WeeklyReport> reports;
  for (int week = kFirstWeek; week <= kLastWeek; ++week) {
    tracer.set_context(4, week);
    auto open_span = tracer.span("store.open_validate");
    const store::SnapshotFile file = store::SnapshotFile::open(store.path_for(week));
    layers["store.open_validate_s"] += open_span.stop();
    result.check(file.ok(), "re-driven open of week " + std::to_string(week) + " failed");
    auto decode_span = tracer.span("store.decode");
    const auto provenance =
        store::SnapshotCodec::decode_provenance(file.section(store::kProvenanceSection));
    auto report = store::SnapshotCodec::decode_report(file.section(store::kReportSection));
    layers["store.decode_s"] += decode_span.stop();
    result.check(provenance.has_value() && report.has_value(),
                 "re-driven decode of week " + std::to_string(week) + " failed");
    if (report) reports.push_back(std::move(*report));
  }
  tracer.set_context(4, kLastWeek);
  auto fold_span = tracer.span("analysis.longitudinal_fold");
  const analysis::LongitudinalSummary summary = analysis::summarize_longitudinal(reports);
  layers["analysis.longitudinal_fold_s"] = fold_span.stop();
  result.check(summary == reference.longitudinal,
               "re-driven longitudinal summary differs");
}

}  // namespace

Result run_weeks(const Args& args, Tracer& tracer) {
  Result result;
  std::vector<double> setup_times;
  const Inputs in =
      repeat_setup(kSetupReps, setup_times, [&] { return set_up(args, tracer); });
  std::cout << "weeks: weeks " << kFirstWeek << ".." << kLastWeek << ", "
            << in.samples << " samples, seed " << args.seed << ", set-up "
            << median(setup_times) << " s (median of " << setup_times.size()
            << ")\n";

  const ScratchPath store_dir{args.work_dir + "/weeks-store"};
  const ScratchPath redrive_dir{args.work_dir + "/weeks-redrive"};
  const std::string& dir = store_dir.path;
  std::optional<Reference> reference;
  // Measured passes are untraced: a disabled tracer only times.
  Tracer untraced{false};

  if (!tracer.enabled()) {
    std::vector<double> cold;
    std::vector<double> resume;
    const int passes = reps_for(args.seconds, kPassSeconds);
    for (int pass = 1; pass <= passes; ++pass) {
      const PassTimes t = run_pass(in, dir, untraced, result, reference,
                                   args.break_reference, kResumesPerPass);
      cold.push_back(t.cold_s);
      resume.insert(resume.end(), t.resume_s.begin(), t.resume_s.end());
      std::cout << "weeks: pass " << pass << ": cold " << t.cold_s
                << " s, resume " << median(t.resume_s) << " s\n";
    }
    std::cout << "weeks: weeks_cold_s " << median(cold) << " s, weeks_resume_s "
              << median(resume) << " s (" << cold.size() << " cold, " << resume.size()
              << " resume passes)\n";
    result.metric("setup_s", median(setup_times), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("main_s", median(cold), "s");
    result.metric("alt_s", median(resume), "s");
    return result;
  }

  // Traced: an untraced pass, then a traced one, so the overhead compares
  // like with like; then the re-driven sub-calls.
  Layers layers;
  const PassTimes plain =
      run_pass(in, dir, untraced, result, reference, args.break_reference, 1);
  FetchCounter fetches;
  tracer.set_context(1, kFirstWeek);
  const PassTimes traced =
      run_pass(in, dir, tracer, result, reference, args.break_reference, 1, &fetches);
  layers["store.weeks_run_s"] = traced.cold_s + traced.resume_s.front();
  layers["gen.fetch_chains_s"] = fetches.seconds();
  layers["gen.fetch_chains_calls"] = static_cast<double>(fetches.calls);
  layers["harness.trace_overhead_ratio"] =
      (traced.cold_s + traced.resume_s.front()) / (plain.cold_s + plain.resume_s.front()) - 1.0;

  redrive_resume(dir, tracer, result, *reference, layers);
  redrive_cold(in, redrive_dir.path, tracer, result, *reference, layers);

  layers["gen.model_build_s"] = tracer.total("gen.model_build") / kSetupReps;
  layers["gen.generate_ns_per_sample"] =
      tracer.total("gen.generate") * 1e9 /
      (kSetupReps * std::max<double>(1.0, static_cast<double>(in.samples)));
  layers["harness.failed_ratio"] =
      static_cast<double>(result.failed()) /
      static_cast<double>(std::max<std::uint64_t>(1, result.attempted()));
  std::cout << "weeks: traced cold+resume " << traced.cold_s + traced.resume_s.front()
            << " s vs untraced " << plain.cold_s + plain.resume_s.front() << " s\n";
  emit_layers(result, layers);
  return result;
}

}  // namespace perfbench
