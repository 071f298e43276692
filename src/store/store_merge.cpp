#include "store/store_merge.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "store/snapshot_codec.hpp"
#include "store/weeks_runner.hpp"

namespace ixp::store {

MergeResult merge_stores(const MergeOptions& options) {
  MergeResult result;
  if (options.inputs.empty()) {
    result.error = "merge needs at least one input store";
    return result;
  }

  const SnapshotStore out{options.out};
  if (std::string error; !out.ensure_dir(&error)) {
    result.store_unreadable = true;
    result.error = error;
    return result;
  }

  // Scan every input up front: quarantine rot where it lies, learn the
  // union of weeks. An unreadable input directory is fatal — silently
  // merging a subset would masquerade as the union.
  std::vector<SnapshotStore> stores;
  std::vector<std::vector<int>> store_weeks;
  stores.reserve(options.inputs.size());
  std::set<int> weeks_union;
  for (const std::string& dir : options.inputs) {
    SnapshotStore store{dir};
    SnapshotStore::ScanResult scan = store.scan();
    if (!scan.readable) {
      result.store_unreadable = true;
      result.error = scan.error;
      return result;
    }
    for (QuarantineEvent& event : scan.quarantined)
      result.quarantined.push_back(std::move(event));
    weeks_union.insert(scan.weeks.begin(), scan.weeks.end());
    store_weeks.push_back(std::move(scan.weeks));
    stores.push_back(std::move(store));
  }

  std::optional<analysis::LongitudinalFolder> folder;
  if (!weeks_union.empty()) {
    result.error = week_range_error(*weeks_union.begin(), *weeks_union.rbegin());
    if (!result.error.empty()) return result;
    folder.emplace(*weeks_union.begin(), *weeks_union.rbegin());
  }

  for (const int week : weeks_union) {
    // The first usable copy of this week across the inputs: validated,
    // provenance decoded and matching this merge's expected inputs. Any
    // two such copies are byte-identical (deterministic pipeline), so the
    // first one stands in for all of them.
    MergedWeek merged_week;
    merged_week.week = week;
    std::optional<SnapshotFile> first;
    for (std::size_t i = 0; i < stores.size(); ++i) {
      if (!std::binary_search(store_weeks[i].begin(), store_weeks[i].end(),
                              week))
        continue;
      std::optional<QuarantineEvent> quarantined;
      SnapshotFile file = stores[i].load(week, &quarantined);
      if (quarantined) result.quarantined.push_back(*quarantined);
      if (!file.ok()) continue;  // rotted between scan and load
      const auto provenance =
          SnapshotCodec::decode_provenance(file.section(kProvenanceSection));
      if (!provenance || provenance->format_version != kFormatVersion ||
          provenance->week != week ||
          provenance->model_fingerprint != options.model_fingerprint ||
          provenance->ingest_fingerprint != options.ingest_fingerprint) {
        // A different model, policy, or format produced this file: it is
        // not an observation of the same synthetic week. Skip, count,
        // leave it untouched in its input store.
        ++result.snapshots_skipped_stale;
        continue;
      }
      ++merged_week.copies;
      if (!first) first = std::move(file);
    }
    if (!first) continue;

    auto report = SnapshotCodec::decode_report(first->section(kReportSection));
    if (!report) {
      result.error = "week " + std::to_string(week) +
                     ": snapshot validated but report section does not "
                     "decode (format bug)";
      return result;
    }
    if (std::string error;
        !commit_snapshot(out.path_for(week), first->bytes(), &error)) {
      result.error = error;
      return result;
    }
    merged_week.report = std::move(*report);
    ++result.weeks_copied;

    folder->observe(merged_week.report);
    result.weeks.push_back(std::move(merged_week));
  }

  if (folder) result.longitudinal = folder->finish();
  result.ok = true;
  return result;
}

}  // namespace ixp::store
