// The benchmark's workloads. Each builds its inputs from the seed, runs
// for the requested time, checks its outputs, and fills in a Result:
// with tracing off the end-to-end metrics, with tracing on the per-layer
// metrics of a separate traced run.
#pragma once

#include "core/week_shard.hpp"
#include "harness.hpp"
#include "ingest/ingest_source.hpp"

namespace perfbench {

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

[[nodiscard]] Result run_week(const Args& args, Tracer& tracer);
[[nodiscard]] Result run_weeks(const Args& args, Tracer& tracer);

/// The serve intake's per-layer metrics (sflow.frame_parse_ns,
/// core.offer_ns, core.serve_*, core.snapshot_s, core.drain_s,
/// sflow.shed_ratio, harness.gen_late_p99_ms), from open-loop replays of
/// the first records of `trace` into ServeService at --serve-rate. The
/// `week` workload's traced run calls it on its own inputs.
void serve_layers(const Args& args, const World& world,
                  const ixp::sflow::MappedTrace& trace, Tracer& tracer,
                  Result& result, Layers& layers);

/// Seconds spent in each of finish_week's sub-calls, as re-driven.
struct FinishParts {
  double https_candidates_s = 0.0;
  double https_sweep_s = 0.0;
  double https_confirm_s = 0.0;
  double summarize_s = 0.0;
  double collect_sort_s = 0.0;
  double routes_of_s = 0.0;
  double countries_of_s = 0.0;
  double metadata_pass_s = 0.0;
  double ips = 0.0;         ///< addresses attributed
  double candidates = 0.0;  ///< HTTPS funnel: candidates and confirmed
  double confirmed = 0.0;

  FinishParts& operator+=(const FinishParts& other);
};

/// Re-drives VantagePoint::finish_week's sub-calls, in its order, on `d`
/// (a copy of the merged dissector that produced `report`): HTTPS
/// candidates, sweep, confirm, summarize, collect + sort, route and
/// country attribution, metadata pass. Checks the re-drive against the
/// report.
[[nodiscard]] FinishParts redrive_finish_week(
    const World& world, int week, ixp::classify::TrafficDissector& d,
    const ixp::core::WeeklyReport& report, Tracer& tracer, Result& result);

/// Sets finish_week's layer metrics from the re-driven parts and the
/// measured finish_week time they came from; the part of that time no
/// sub-call covers is core.aggregate_residual_s.
void emit_finish_parts(const FinishParts& parts, double finish_s,
                       Layers& layers);

/// Drains `source` into `shard`, timing each observe_batch call (recorded
/// as one aggregate span); returns the summed observe seconds.
double timed_observe(ixp::core::WeekShard& shard,
                     ixp::ingest::IngestSource& source, Tracer& tracer);

}  // namespace perfbench
