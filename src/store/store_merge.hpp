// Store merge — fold snapshot stores from separate machines or processes
// into one (DESIGN.md §16).
//
// `ixpscope weeks` runs on machine A for weeks 35..43 and on machine B
// for 44..51; each leaves a directory of sealed snapshots. merge_stores
// walks every input store and produces one output store covering the
// union, equal to what a single machine running the whole range would
// have written:
//
//   - A week present in exactly one input is copied through
//     byte-for-byte (revalidated, then re-committed atomically into the
//     output).
//   - A week present in several inputs is a duplicate: the pipeline is
//     deterministic, so the copies are byte-identical and the first valid
//     one is copied. Copies are counted, not errors — overlapping ranges
//     are a legitimate way to run redundant machines.
//   - A snapshot whose provenance does not match the expected
//     fingerprints (a different model or ingest policy) is skipped and
//     counted — merging across models would manufacture a week nobody
//     measured. Corrupt inputs are quarantined in place, as ever.
//
// Merge copies and never computes, so it needs no model: only the
// fingerprints a snapshot must carry. A union spanning more weeks than
// the §4 fold covers is an error, reported before any week is written.
//
// The output store is written with the same atomic commit as the weeks
// driver, so a merge interrupted at any point leaves a valid (possibly
// incomplete) output that a re-run completes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/longitudinal.hpp"
#include "store/snapshot_store.hpp"

namespace ixp::store {

struct MergeOptions {
  std::vector<std::string> inputs;  ///< input store directories
  std::string out;                  ///< output store directory

  /// Expected provenance inputs — snapshots recording anything else are
  /// skipped as stale rather than merged (see file comment).
  std::uint64_t model_fingerprint = 0;
  std::uint64_t ingest_fingerprint = 0;
};

/// How one output week was produced.
struct MergedWeek {
  int week = 0;
  std::size_t copies = 0;  ///< input snapshots of the week that were usable
  core::WeeklyReport report;
};

struct MergeResult {
  bool ok = false;
  /// An input directory was unreadable or the output directory unusable.
  bool store_unreadable = false;
  std::string error;

  std::vector<MergedWeek> weeks;  ///< ascending week order
  std::size_t weeks_copied = 0;
  std::size_t snapshots_skipped_stale = 0;
  std::vector<QuarantineEvent> quarantined;  ///< rot found in the inputs

  /// §4 over the merged union.
  analysis::LongitudinalSummary longitudinal;
};

/// Folds every input store into `options.out`.
[[nodiscard]] MergeResult merge_stores(const MergeOptions& options);

}  // namespace ixp::store
