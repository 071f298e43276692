#include "store/weeks_runner.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "analysis/churn_tracker.hpp"
#include "store/snapshot_codec.hpp"

namespace ixp::store {

std::string week_range_error(int from_week, int to_week) {
  if (to_week < from_week) return "empty week range";
  if (to_week - from_week >= analysis::ChurnTracker::kMaxWeeks) {
    return "week range " + std::to_string(from_week) + ".." +
           std::to_string(to_week) + " spans " +
           std::to_string(to_week - from_week + 1) +
           " weeks; the churn fold covers at most " +
           std::to_string(analysis::ChurnTracker::kMaxWeeks);
  }
  return {};
}

WeeksResult WeeksRunner::run(const WeeksOptions& options,
                             const SourceFactory& make_source,
                             const FetcherFactory& make_fetcher,
                             const CommitHooks* hooks) {
  WeeksResult result;
  result.error = week_range_error(options.from_week, options.to_week);
  if (!result.error.empty()) return result;

  if (std::string error; !store_.ensure_dir(&error)) {
    result.store_unreadable = true;
    result.error = error;
    return result;
  }

  // One scan up front: quarantine rot, sweep crash leftovers, and learn
  // which weeks are already durable.
  SnapshotStore::ScanResult scan = store_.scan();
  if (!scan.readable) {
    result.store_unreadable = true;
    result.error = scan.error;
    return result;
  }
  result.quarantined = std::move(scan.quarantined);
  result.stale_temps_removed = scan.stale_temps_removed;

  // Each week's report is folded into the §4 summary as it is produced,
  // so the summary never needs a second copy of the reports.
  analysis::LongitudinalFolder folder{options.from_week, options.to_week};

  for (int week = options.from_week; week <= options.to_week; ++week) {
    const auto at =
        std::lower_bound(scan.weeks.begin(), scan.weeks.end(), week);
    const bool durable = at != scan.weeks.end() && *at == week;
    WeekOutcome outcome;
    outcome.week = week;

    // What this run would stamp into the week's snapshot — and therefore
    // what a durable snapshot must carry to be reusable.
    Provenance expected;
    expected.format_version = kFormatVersion;
    expected.week = week;
    expected.model_fingerprint = options.model_fingerprint;
    expected.ingest_fingerprint = options.ingest_fingerprint;

    if (durable) {
      // The scan checksummed this file: a file still carrying its stamp
      // is mapped with the framing walked but no second CRC pass.
      std::optional<QuarantineEvent> quarantined;
      const SnapshotFile file = store_.load(
          week, &quarantined, &scan.stamps[at - scan.weeks.begin()]);
      if (quarantined) result.quarantined.push_back(*quarantined);
      if (file.ok()) {
        const auto provenance =
            SnapshotCodec::decode_provenance(file.section(kProvenanceSection));
        if (!provenance || !(*provenance == expected)) {
          // Intact file, wrong inputs: the model or ingest policy changed
          // since this week was computed. Same never-delete path as
          // storage rot — move it aside, recompute.
          result.quarantined.push_back(store_.quarantine(
              store_.path_for(week), SnapshotError::kStaleProvenance));
          ++result.weeks_stale;
        } else {
          auto report =
              SnapshotCodec::decode_report(file.section(kReportSection));
          if (!report) {
            result.error = store_.path_for(week) +
                           ": snapshot validated but report section does not "
                           "decode (format bug)";
            return result;
          }
          folder.observe(*report);
          outcome.resumed = true;
          outcome.report = std::move(*report);
          ++result.weeks_resumed;
          result.weeks.push_back(std::move(outcome));
          continue;
        }
      }
      // The file rotted between scan and load (or scan raced another
      // process), or carried stale provenance: recompute the week.
    }

    std::unique_ptr<ingest::IngestSource> source = make_source(week);
    core::WeekSession session = vantage_->open_week(week);
    std::vector<std::uint64_t> errors;
    session.absorb(analyzer_->reduce(session, *source, &errors));
    core::WeeklyReport report =
        session.finish(make_fetcher(week), analyzer_->threads());
    const std::uint64_t dropped =
        std::accumulate(errors.begin(), errors.end(), std::uint64_t{0});
    if (dropped > 0) {
      report.degraded = true;
      report.worker_errors = std::move(errors);
    }
    const std::vector<std::byte> report_bytes =
        SnapshotCodec::encode_report(report);
    const std::vector<std::byte> provenance_bytes =
        SnapshotCodec::encode_provenance(expected);

    const Section sections[] = {
        {kReportSection, report_bytes},
        {kProvenanceSection, provenance_bytes},
    };
    if (std::string error; !store_.save(week, sections, &error, hooks)) {
      result.error = error;
      return result;
    }

    folder.observe(report);
    outcome.resumed = false;
    outcome.report = std::move(report);
    ++result.weeks_computed;
    result.weeks.push_back(std::move(outcome));
  }

  result.longitudinal = folder.finish();

  result.ok = true;
  return result;
}

}  // namespace ixp::store
