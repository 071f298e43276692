// WeeksRunner — the resumable longitudinal driver (§4 over N weeks).
//
// One call runs a contiguous range of observation weeks through the
// parallel engine and leaves one durable snapshot per completed week in
// a SnapshotStore. The driver is crash-consistent end to end:
//
//   - Before any work it scans the store: valid snapshots become resume
//     points, corrupt ones are quarantined (and their weeks re-run),
//     stale temp files from a previous crash are swept.
//   - A week with a durable snapshot is NOT re-run: its report is decoded
//     straight from disk. A week without one is computed, and its report
//     is sealed beside the provenance record it was computed under —
//     the two sections every reader of the store opens.
//   - The snapshot commit is atomic (SnapshotStore::save); a crash at any
//     point of any week leaves either that week durable or cleanly
//     absent, never half-written. Re-running after a crash therefore
//     recomputes at most the one interrupted week.
//
// Because every phase is deterministic (the workload is seeded, the
// engine is byte-identical across thread counts, the codec is canonical),
// a resumed run's reports — and the §4 longitudinal summary folded from
// them — are byte-identical to an uninterrupted run's. The crash-matrix
// tests drive every CrashPoint and StorageFault through this property.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/longitudinal.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "ingest/ingest_source.hpp"
#include "store/snapshot_store.hpp"

namespace ixp::store {

struct WeeksOptions {
  int from_week = 0;
  int to_week = 0;  ///< inclusive

  /// The inputs half of each snapshot's provenance record (DESIGN.md
  /// §16): the model fingerprint (gen::ScaleConfig::fingerprint()) and
  /// the ingest-policy fingerprint. Stamped into every snapshot written
  /// and checked on every snapshot resumed — a durable week whose stored
  /// provenance differs is stale (the model or policy changed since it
  /// was computed) and is quarantined-and-recomputed, exactly like
  /// storage rot. Thread/job counts are deliberately absent: reports are
  /// byte-identical across parallelism, so it never invalidates.
  std::uint64_t model_fingerprint = 0;
  std::uint64_t ingest_fingerprint = 0;
};

/// Why weeks [from_week, to_week] cannot be run or folded, or an empty
/// string when they can: the range must be non-empty and no longer than
/// analysis::ChurnTracker::kMaxWeeks, which the §4 fold covers.
[[nodiscard]] std::string week_range_error(int from_week, int to_week);

/// How one week of the range was satisfied.
struct WeekOutcome {
  int week = 0;
  bool resumed = false;  ///< decoded from a durable snapshot, not re-run
  core::WeeklyReport report;
};

struct WeeksResult {
  /// False for a range week_range_error rejects and for environment
  /// failures (unreadable/uncreatable store directory, commit failure,
  /// undecodable snapshot); the CLI maps the store-directory case to its
  /// own exit code.
  bool ok = false;
  bool store_unreadable = false;  ///< the failure was the store directory
  std::string error;

  std::vector<WeekOutcome> weeks;  ///< ascending week order
  std::size_t weeks_resumed = 0;
  std::size_t weeks_computed = 0;
  /// Durable snapshots whose provenance no longer matched this run's
  /// inputs: quarantined (`stale-provenance`) and recomputed. Always
  /// counted inside weeks_computed as well.
  std::size_t weeks_stale = 0;

  /// What the pre-run scan found and did.
  std::vector<QuarantineEvent> quarantined;
  std::size_t stale_temps_removed = 0;

  /// §4 churn/persistence over the full range (resumed + computed).
  analysis::LongitudinalSummary longitudinal;
};

class WeeksRunner {
 public:
  /// Mints the sample source for one week; invoked only for weeks that
  /// have no durable snapshot.
  using SourceFactory =
      std::function<std::unique_ptr<ingest::IngestSource>(int week)>;
  /// Mints the certificate fetcher for one week's probe phase.
  using FetcherFactory = std::function<classify::ChainFetcher(int week)>;

  WeeksRunner(core::VantagePoint& vantage, core::ParallelAnalyzer& analyzer,
              SnapshotStore store)
      : vantage_(&vantage), analyzer_(&analyzer), store_(std::move(store)) {}

  [[nodiscard]] const SnapshotStore& store() const noexcept { return store_; }

  /// Runs weeks [from_week, to_week], resuming past durable snapshots.
  /// `hooks` (when set) instruments every snapshot commit — the crash
  /// harness; an InjectedCrash thrown by a hook propagates with the
  /// filesystem exactly as the simulated kill left it.
  [[nodiscard]] WeeksResult run(const WeeksOptions& options,
                                const SourceFactory& make_source,
                                const FetcherFactory& make_fetcher,
                                const CommitHooks* hooks = nullptr);

 private:
  core::VantagePoint* vantage_;
  core::ParallelAnalyzer* analyzer_;
  SnapshotStore store_;
};

}  // namespace ixp::store
