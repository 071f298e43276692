// Workload `week`: one bench-scale week (volume 1/256) from trace bytes to
// a WeeklyReport.
//
// Set-up builds the model and records week 45 into an in-memory trace
// image. The measured part runs ParallelAnalyzer::analyze over an
// ingest::MappedSource of that image, alternating threads = 1 and
// threads = nproc: one untimed warm-up pair, then one pair per ~3 s of the
// run's time. Every nproc report must encode byte-identically to the
// 1-thread report, and every trace read must account for each byte.
//
// The traced run drives the same calls one at a time (reduce, absorb,
// finish) and then re-drives finish_week's sub-calls on a copy of the
// merged dissector, since finish_week itself is one call.
#include <malloc.h>

#include <algorithm>
#include <iostream>
#include <optional>

#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/mapped_trace.hpp"
#include "store/snapshot_codec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ixp;

constexpr int kWeek = 45;
constexpr double kVolume = 1.0 / 256.0;
constexpr int kTracedPasses = 3;

struct Inputs {
  World world;
  RecordedWeek week;
};

Inputs set_up(const Args& args, Tracer& tracer) {
  Inputs in;
  in.world = build_world(scale_for(args, kVolume), tracer);
  in.week = record_week(in.world, kWeek, tracer);
  return in;
}

/// The output checks of one analysis: exact byte accounting, no corrupt
/// records, an undegraded report that encodes to `reference` (when given).
void check_analysis(Result& result, const sflow::MappedTrace& trace,
                    const ingest::MappedSource& source,
                    const core::WeeklyReport& report,
                    const std::vector<std::byte>* reference,
                    const char* what) {
  const sflow::ReaderStats stats = source.stats();
  result.attempt(stats.datagrams + stats.errors());
  result.fail(stats.errors(), std::string{what} + ": corrupt trace records");
  result.check(trace.size() == sflow::kTraceHeaderBytes +
                                   stats.bytes_delivered + stats.bytes_skipped,
               std::string{what} + ": trace bytes not fully accounted");
  result.check(!report.degraded, std::string{what} + ": report degraded");
  if (reference != nullptr) {
    result.check(store::SnapshotCodec::encode_report(report) == *reference,
                 std::string{what} + ": report differs from the 1-thread report");
  }
}

/// One untraced analysis; returns its wall time from source to report.
double analyze_once(const Inputs& in, unsigned threads,
                    Result& result, std::vector<std::byte>& reference,
                    bool break_reference) {
  const sflow::MappedTrace& trace = in.week.trace;
  // Heap memory the previous analysis freed goes back to the system first,
  // so every analysis starts from the same heap and peak RSS does not
  // depend on how the threads' arenas happened to fragment.
  malloc_trim(0);
  const auto t0 = Clock::now();
  ingest::MappedSource source{trace};
  core::ParallelOptions options;
  options.threads = threads;
  core::ParallelAnalyzer analyzer{*in.world.vantage, options};
  const core::WeeklyReport report =
      analyzer.analyze(kWeek, source, in.world.fetcher(kWeek));
  const double seconds = seconds_since(t0);
  if (reference.empty()) {
    reference = store::SnapshotCodec::encode_report(report);
    if (break_reference) reference[reference.size() / 2] ^= std::byte{0x5a};
    check_analysis(result, trace, source, report, nullptr, "week");
  } else {
    check_analysis(result, trace, source, report, &reference, "week");
  }
  return seconds;
}

/// One analysis driven call by call (open, reduce, absorb, finish) with
/// spans around each. Fills the layers it measures and leaves a copy of
/// the merged dissector in `redo`; returns the wall time from source to
/// report, copy excluded.
double traced_analysis(const Inputs& in, Tracer& tracer, Result& result,
                       const std::vector<std::byte>& reference, Layers& layers,
                       core::WeeklyReport& report,
                       std::optional<classify::TrafficDissector>& redo) {
  const unsigned threads = nproc();
  const World& world = in.world;
  FetchCounter fetches;

  // Per-batch timestamps from the worker hook, one log per worker thread.
  std::vector<std::vector<Clock::time_point>> logs(threads);
  std::atomic<unsigned> next_log{0};
  core::ParallelOptions options;
  options.threads = threads;
  options.worker_hook = [&](std::span<const sflow::FlowSample>, std::uint64_t) {
    thread_local std::vector<Clock::time_point>* log = nullptr;
    thread_local const void* owner = nullptr;
    if (owner != &logs) {
      owner = &logs;
      log = &logs[next_log.fetch_add(1) % logs.size()];
    }
    log->push_back(Clock::now());
  };
  core::ParallelAnalyzer analyzer{*world.vantage, options};

  auto week_span = tracer.span("week");
  const sflow::MappedTrace& trace = in.week.trace;
  auto open_span = tracer.span("ingest.open");
  ingest::MappedSource source{trace};
  core::WeekSession session = world.vantage->open_week(kWeek);
  double wall = open_span.stop();

  const std::uint64_t rss_before = rss_anon_bytes();
  auto reduce_span = tracer.span("core.reduce");
  core::WeekShard shard = analyzer.reduce(session, source);
  const double reduce_s = reduce_span.stop();
  const std::uint64_t rss_after = rss_anon_bytes();
  wall += reduce_s;
  {
    auto copy_span = tracer.span("harness.copy_dissector");
    redo.emplace(shard.dissector());
  }
  const auto ips = static_cast<double>(shard.dissector().activity().size());
  layers["core.activity_ips"] = ips;
  layers["core.bytes_per_peering_ip"] =
      static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
      std::max(1.0, ips);
  layers["classify.peering_sample_ratio"] =
      static_cast<double>(shard.counters().of(classify::TrafficClass::kPeering)) /
      static_cast<double>(std::max<std::uint64_t>(1, shard.samples_observed()));

  auto absorb_span = tracer.span("core.absorb");
  session.absorb(std::move(shard));
  const double absorb_s = absorb_span.stop();
  wall += absorb_s;

  auto finish_span = tracer.span("core.finish_week");
  report = session.finish(world.fetcher(kWeek, &fetches));
  tracer.aggregate("gen.fetch_chains", fetches.seconds(), fetches.calls);
  const double finish_s = finish_span.stop();
  wall += finish_s;
  week_span.stop();
  check_analysis(result, trace, source, report, &reference, "traced week");

  layers["core.reduce_s"] = reduce_s;
  layers["core.absorb_s"] = absorb_s;
  layers["core.finish_week_s"] = finish_s;
  layers["gen.fetch_chains_s"] = fetches.seconds();
  layers["gen.fetch_chains_calls"] = static_cast<double>(fetches.calls);
  layers["ingest.bytes_skipped"] = static_cast<double>(source.stats().bytes_skipped);

  // Worker balance: busy = each worker's first-to-last batch interval plus
  // one mean batch, over threads x reduce wall; skew = the most batches
  // one worker took over the mean.
  std::size_t batches = 0;
  std::size_t most = 0;
  for (const auto& log : logs) {
    batches += log.size();
    most = std::max(most, log.size());
  }
  const double mean_batch =
      batches == 0 ? 0.0 : reduce_s * threads / static_cast<double>(batches);
  double busy = 0.0;
  for (const auto& log : logs)
    if (!log.empty()) busy += seconds_between(log.front(), log.back()) + mean_batch;
  layers["core.worker_busy_ratio"] = std::min(1.0, busy / (reduce_s * threads));
  layers["core.worker_batch_skew"] =
      static_cast<double>(most) * threads /
      static_cast<double>(std::max<std::size_t>(1, batches));
  return wall;
}

/// Ingest and observe on their own, each over a fresh serial source.
void ingest_passes(const Inputs& in, Tracer& tracer, Result& result,
                   Layers& layers) {
  const sflow::MappedTrace& trace = in.week.trace;
  {
    ingest::MappedSource source{trace};
    auto s_split = tracer.span("ingest.split");
    const auto parts = source.split(nproc());
    layers["ingest.split_s"] = s_split.stop();
    result.check(!parts.empty(), "mapped trace does not split");
  }
  {
    ingest::MappedSource source{trace};
    std::uint64_t samples = 0;
    auto s_decode = tracer.span("ingest.decode");
    ingest::SampleBatch batch;
    while (source.next_batch(batch) == ingest::SourceStatus::kBatch)
      samples += batch.samples.size();
    layers["ingest.decode_ns_per_sample"] =
        s_decode.stop() * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, samples));
    result.check(samples == in.week.samples, "serial decode lost samples");
  }
  {
    ingest::MappedSource source{trace};
    core::WeekShard shard = in.world.vantage->open_week(kWeek).make_shard();
    auto s_pass = tracer.span("harness.observe_pass");
    const double observe_s = timed_observe(shard, source, tracer);
    layers["core.observe_ns_per_sample"] =
        observe_s * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(1, shard.samples_observed()));
  }
}

}  // namespace

Result run_week(const Args& args, Tracer& tracer) {
  Result result;
  std::vector<double> setup_times;
  Inputs in = repeat_setup(kSetupReps, setup_times,
                           [&] { return set_up(args, tracer); });
  std::cout << "week: week " << kWeek << ", " << in.week.samples << " samples, seed "
            << args.seed << ", set-up " << median(setup_times) << " s (median of "
            << setup_times.size() << ")\n";

  std::vector<std::byte> reference;
  std::vector<double> serial;
  std::vector<double> parallel;
  const unsigned threads = nproc();
  // An untimed warm-up pair, whose 1-thread report is the reference; the
  // traced run needs nothing more.
  const int pairs = tracer.enabled() ? 0 : reps_for(args.seconds, 3.0);
  analyze_once(in, 1, result, reference, args.break_reference);
  analyze_once(in, threads, result, reference, args.break_reference);
  for (int pass = 1; pass <= pairs; ++pass) {
    serial.push_back(analyze_once(in, 1, result, reference, args.break_reference));
    parallel.push_back(
        analyze_once(in, threads, result, reference, args.break_reference));
    std::cout << "week: pass " << pass << ": serial " << serial.back()
              << " s, threads " << threads << " " << parallel.back() << " s\n";
  }

  const double week_s = median(parallel);
  const double week_serial_s = median(serial);
  std::cout << "week: week_s " << week_s << " s (threads " << threads << ", "
            << parallel.size() << " runs), week_serial_s " << week_serial_s
            << " s (" << serial.size() << " runs)\n";

  if (!tracer.enabled()) {
    result.metric("setup_s", median(setup_times), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("main_s", week_s, "s");
    result.metric("alt_s", week_serial_s, "s");
    return result;
  }

  // Traced and untraced nproc analyses alternate, so the overhead compares
  // like with like; the layers come from the last traced one.
  Layers layers;
  core::WeeklyReport report;
  std::optional<classify::TrafficDissector> redo;
  std::vector<double> untraced;
  std::vector<double> traced;
  for (int i = 0; i < kTracedPasses; ++i) {
    untraced.push_back(
        analyze_once(in, threads, result, reference, args.break_reference));
    tracer.set_context(i + 1, kWeek);
    traced.push_back(
        traced_analysis(in, tracer, result, reference, layers, report, redo));
  }
  tracer.set_context(kTracedPasses + 1, kWeek);
  emit_finish_parts(
      redrive_finish_week(in.world, kWeek, *redo, report, tracer, result),
      layers["core.finish_week_s"], layers);
  redo.reset();
  ingest_passes(in, tracer, result, layers);
  tracer.set_context(kTracedPasses + 2, kWeek);
  serve_layers(args, in.world, in.week.trace, tracer, result, layers);

  layers["gen.model_build_s"] = tracer.total("gen.model_build") / kSetupReps;
  layers["gen.generate_ns_per_sample"] =
      tracer.total("gen.generate") * 1e9 /
      (kSetupReps * std::max<double>(1.0, static_cast<double>(in.week.samples)));
  layers["harness.trace_overhead_ratio"] = median(traced) / median(untraced) - 1.0;
  layers["harness.failed_ratio"] =
      static_cast<double>(result.failed()) /
      static_cast<double>(std::max<std::uint64_t>(1, result.attempted()));
  std::cout << "week: traced " << median(traced) << " s vs untraced "
            << median(untraced) << " s (medians of " << kTracedPasses << ")\n";
  emit_layers(result, layers);
  return result;
}

}  // namespace perfbench
