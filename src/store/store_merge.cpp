#include "store/store_merge.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "store/snapshot_codec.hpp"

namespace ixp::store {

namespace {

/// One usable input snapshot of the week being merged.
struct Copy {
  SnapshotFile file;
  Provenance provenance;
  std::size_t store = 0;  ///< index of the input store holding it
};

}  // namespace

MergeResult merge_stores(core::VantagePoint& vantage,
                         const MergeOptions& options,
                         const WeeksRunner::FetcherFactory& make_fetcher) {
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
  if (!weeks_union.empty())
    folder.emplace(*weeks_union.begin(), *weeks_union.rbegin());

  for (const int week : weeks_union) {
    // Gather every usable copy of this week across the inputs: validated,
    // provenance decoded and matching this merge's expected inputs.
    std::vector<Copy> copies;
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
      copies.push_back(Copy{std::move(file), *provenance, i});
    }
    if (copies.empty()) continue;

    MergedWeek merged_week;
    merged_week.week = week;
    merged_week.copies = copies.size();

    // A complete snapshot supersedes partial shards of the same week —
    // the partials are its subsets, and the pipeline's determinism makes
    // any two complete copies byte-identical, so the first one stands in
    // for all of them.
    const auto complete =
        std::find_if(copies.begin(), copies.end(),
                     [](const Copy& c) { return !c.provenance.partial; });

    if (complete != copies.end()) {
      auto report =
          SnapshotCodec::decode_report(complete->file.section(kReportSection));
      if (!report) {
        result.error = "week " + std::to_string(week) +
                       ": snapshot validated but report section does not "
                       "decode (format bug)";
        return result;
      }
      if (std::string error; !commit_snapshot(
              out.path_for(week), complete->file.bytes(), &error)) {
        result.error = error;
        return result;
      }
      merged_week.report = std::move(*report);
      ++result.weeks_copied;
    } else {
      // All copies are partial shards: fold them through the monoid and
      // re-derive the report — the same reduce the parallel engine runs
      // over its in-memory worker shards, applied to persisted ones.
      std::optional<core::WeekShard> shard;
      for (Copy& copy : copies) {
        auto decoded = SnapshotCodec::decode_shard(
            copy.file.section(kShardSection), vantage.ixp());
        if (!decoded) {
          // Checksummed, yet damaged past what the codec accepts (an
          // activity count too large for its table, say): quarantine it
          // like rot and fold the copies that remain.
          result.quarantined.push_back(stores[copy.store].quarantine(
              stores[copy.store].path_for(week), SnapshotError::kUndecodable));
          --merged_week.copies;
          continue;
        }
        if (!shard) {
          shard = std::move(*decoded);
        } else {
          shard->merge(std::move(*decoded));
        }
      }
      if (!shard) continue;  // every copy was quarantined

      const std::vector<std::byte> shard_bytes =
          SnapshotCodec::encode_shard(*shard);
      core::WeekSession session = vantage.open_week(week);
      session.absorb(std::move(*shard));
      core::WeeklyReport report = session.finish(make_fetcher(week));
      const std::vector<std::byte> report_bytes =
          SnapshotCodec::encode_report(report);

      Provenance provenance;
      provenance.format_version = kFormatVersion;
      provenance.week = week;
      provenance.partial = false;  // the union is the whole week now
      provenance.model_fingerprint = options.model_fingerprint;
      provenance.ingest_fingerprint = options.ingest_fingerprint;
      const std::vector<std::byte> provenance_bytes =
          SnapshotCodec::encode_provenance(provenance);

      const Section sections[] = {
          {kShardSection, shard_bytes},
          {kReportSection, report_bytes},
          {kProvenanceSection, provenance_bytes},
      };
      if (std::string error; !out.save(week, sections, &error)) {
        result.error = error;
        return result;
      }
      merged_week.report = std::move(report);
      merged_week.rederived = true;
      ++result.weeks_rederived;
    }

    folder->observe(merged_week.report);
    result.weeks.push_back(std::move(merged_week));
  }

  if (folder) result.longitudinal = folder->finish();
  result.ok = true;
  return result;
}

}  // namespace ixp::store
