// The store-merge contract (DESIGN.md §16): folding snapshot stores from
// separate machines into one is byte-identical to a single-process run
// over the union of weeks — for disjoint partitions, overlapping
// (redundant) ranges, and weeks persisted as partial shards that must be
// folded through the WeekShard monoid and re-derived. Corrupt inputs are
// quarantined in place across the whole storage-fault matrix; stale
// provenance is skipped, never merged.
#include "store/store_merge.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "store/snapshot_codec.hpp"
#include "support/store_fault.hpp"

namespace ixp::store {
namespace {

namespace fs = std::filesystem;

constexpr int kFromWeek = 44;
constexpr int kToWeek = 46;

class StoreMergeTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    study_ = new analysis::Study{gen::ScaleConfig::test()};
    week_samples_ = new std::map<int, std::vector<sflow::FlowSample>>;
    for (int week = kFromWeek; week <= kToWeek; ++week) {
      auto& samples = (*week_samples_)[week];
      study_->workload().generate_week(
          week, [&](const sflow::FlowSample& s) { samples.push_back(s); });
    }
  }

  static void TearDownTestSuite() {
    delete week_samples_;
    delete study_;
  }

  static WeeksRunner::SourceFactory source_factory() {
    return [](int week) -> std::unique_ptr<ingest::IngestSource> {
      return std::make_unique<gen::WeekSource>(study_->workload(), week);
    };
  }

  static WeeksRunner::FetcherFactory fetcher_factory() {
    return [](int week) { return study_->fetcher(week); };
  }

  /// Runs weeks [from, to] into `dir` (one machine's share of the range).
  static WeeksResult run_range(const std::string& dir, int from, int to) {
    auto vp = study_->vantage();
    core::ParallelOptions popt;
    popt.threads = 2;
    core::ParallelAnalyzer analyzer{vp, popt};
    WeeksRunner runner{vp, analyzer, SnapshotStore{dir}};
    WeeksOptions options;
    options.from_week = from;
    options.to_week = to;
    return runner.run(options, source_factory(), fetcher_factory());
  }

  static MergeResult merge(const std::vector<std::string>& inputs,
                           const std::string& out,
                           std::uint64_t model_fingerprint = 0,
                           std::uint64_t ingest_fingerprint = 0) {
    auto vp = study_->vantage();
    MergeOptions options;
    options.inputs = inputs;
    options.out = out;
    options.model_fingerprint = model_fingerprint;
    options.ingest_fingerprint = ingest_fingerprint;
    return merge_stores(vp, options, fetcher_factory());
  }

  /// Persists one partial shard of `week` — samples [begin, end) at their
  /// original stream positions — into `dir`, exactly as a distributed
  /// mapper owning that slice of the week would. With `unrepresentable`,
  /// the first activity record's byte count is set one past what the
  /// table holds before the file is sealed, so it checksums but cannot
  /// decode.
  static void save_partial_shard(const std::string& dir, int week,
                                 std::size_t begin, std::size_t end,
                                 bool unrepresentable = false) {
    auto vp = study_->vantage();
    core::WeekSession session = vp.open_week(week);
    core::WeekShard shard = session.make_shard();
    const auto& samples = week_samples_->at(week);
    shard.observe_batch(
        std::span<const sflow::FlowSample>{samples}.subspan(begin,
                                                            end - begin),
        begin);
    auto shard_bytes = SnapshotCodec::encode_shard(shard);
    if (unrepresentable) {
      // The first record follows the activity count; its byte count sits
      // after the address and the sample count.
      const std::size_t at =
          SnapshotCodec::encode_shard(session.make_shard()).size() - 4 + 8;
      for (int i = 0; i < 8; ++i)
        shard_bytes[at + i] =
            static_cast<std::byte>((classify::kMaxActivityBytes + 1) >> (8 * i));
    }

    Provenance provenance;
    provenance.format_version = kFormatVersion;
    provenance.week = week;
    provenance.partial = true;
    const auto provenance_bytes =
        SnapshotCodec::encode_provenance(provenance);

    const SnapshotStore store{dir};
    std::string error;
    ASSERT_TRUE(store.ensure_dir(&error)) << error;
    const Section sections[] = {
        {kShardSection, shard_bytes},
        {kProvenanceSection, provenance_bytes},
    };
    ASSERT_TRUE(store.save(week, sections, &error)) << error;
  }

  static analysis::Study* study_;
  static std::map<int, std::vector<sflow::FlowSample>>* week_samples_;
};

analysis::Study* StoreMergeTest::study_ = nullptr;
std::map<int, std::vector<sflow::FlowSample>>* StoreMergeTest::week_samples_ =
    nullptr;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(testing::TempDir() + "ixpscope_merge_" + tag + "_" +
              std::to_string(::getpid())) {
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in) << path;
  std::vector<char> raw{std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{}};
  std::vector<std::byte> out(raw.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out{path, std::ios::binary};
  ASSERT_TRUE(out) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The merged output must equal the single-process union run, byte for
/// byte: per-week reports, durable files, and the §4 summary.
void expect_matches_union(const MergeResult& merged, const WeeksResult& whole,
                          const std::string& merged_dir,
                          const std::string& whole_dir) {
  ASSERT_TRUE(merged.ok) << merged.error;
  ASSERT_TRUE(whole.ok) << whole.error;
  ASSERT_EQ(merged.weeks.size(), whole.weeks.size());
  for (std::size_t i = 0; i < merged.weeks.size(); ++i) {
    SCOPED_TRACE("week " + std::to_string(merged.weeks[i].week));
    EXPECT_EQ(merged.weeks[i].week, whole.weeks[i].week);
    EXPECT_EQ(SnapshotCodec::encode_report(merged.weeks[i].report),
              SnapshotCodec::encode_report(whole.weeks[i].report));
    EXPECT_EQ(
        read_file(SnapshotStore{merged_dir}.path_for(merged.weeks[i].week)),
        read_file(SnapshotStore{whole_dir}.path_for(whole.weeks[i].week)));
  }
  EXPECT_EQ(merged.longitudinal, whole.longitudinal);
}

TEST_F(StoreMergeTest, DisjointPartitionMergesByteIdenticalToUnionRun) {
  const TempDir whole_dir{"whole"};
  const auto whole = run_range(whole_dir.path(), kFromWeek, kToWeek);
  ASSERT_TRUE(whole.ok) << whole.error;

  // Machine A computed 44..45, machine B computed 46.
  const TempDir a{"part_a"};
  const TempDir b{"part_b"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kFromWeek + 1).ok);
  ASSERT_TRUE(run_range(b.path(), kToWeek, kToWeek).ok);

  const TempDir out{"part_out"};
  const auto merged = merge({a.path(), b.path()}, out.path());
  EXPECT_EQ(merged.weeks_copied, 3u);
  EXPECT_EQ(merged.weeks_rederived, 0u);
  EXPECT_EQ(merged.snapshots_skipped_stale, 0u);
  for (const auto& week : merged.weeks) {
    EXPECT_EQ(week.copies, 1u);
    EXPECT_FALSE(week.rederived);
  }
  expect_matches_union(merged, whole, out.path(), whole_dir.path());
}

TEST_F(StoreMergeTest, OverlappingStoresDedupeByDeterminism) {
  const TempDir whole_dir{"dedup_whole"};
  const auto whole = run_range(whole_dir.path(), kFromWeek, kToWeek);
  ASSERT_TRUE(whole.ok) << whole.error;

  // Redundant machines: both computed the middle week.
  const TempDir a{"dedup_a"};
  const TempDir b{"dedup_b"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kFromWeek + 1).ok);
  ASSERT_TRUE(run_range(b.path(), kFromWeek + 1, kToWeek).ok);

  const TempDir out{"dedup_out"};
  const auto merged = merge({a.path(), b.path()}, out.path());
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(merged.weeks_copied, 3u);
  ASSERT_EQ(merged.weeks.size(), 3u);
  EXPECT_EQ(merged.weeks[0].copies, 1u);
  EXPECT_EQ(merged.weeks[1].copies, 2u);  // the duplicated middle week
  EXPECT_EQ(merged.weeks[2].copies, 1u);
  expect_matches_union(merged, whole, out.path(), whole_dir.path());
}

TEST_F(StoreMergeTest, PartialShardsFoldThroughTheMonoidAndRederive) {
  const TempDir whole_dir{"shard_whole"};
  const auto whole = run_range(whole_dir.path(), kFromWeek, kToWeek);
  ASSERT_TRUE(whole.ok) << whole.error;

  // Weeks 44 and 46 are complete snapshots on machine A; week 45 exists
  // only as two partial shards — machine A observed the front half of the
  // sample stream, machine B the back half.
  const TempDir a{"shard_a"};
  const TempDir b{"shard_b"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kFromWeek).ok);
  ASSERT_TRUE(run_range(a.path(), kToWeek, kToWeek).ok);
  const std::size_t total = week_samples_->at(kFromWeek + 1).size();
  save_partial_shard(a.path(), kFromWeek + 1, 0, total / 2);
  save_partial_shard(b.path(), kFromWeek + 1, total / 2, total);

  const TempDir out{"shard_out"};
  const auto merged = merge({a.path(), b.path()}, out.path());
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(merged.weeks_copied, 2u);
  EXPECT_EQ(merged.weeks_rederived, 1u);
  ASSERT_EQ(merged.weeks.size(), 3u);
  EXPECT_TRUE(merged.weeks[1].rederived);
  EXPECT_EQ(merged.weeks[1].copies, 2u);
  expect_matches_union(merged, whole, out.path(), whole_dir.path());
}

TEST_F(StoreMergeTest, CompleteSnapshotSupersedesPartialShards) {
  const TempDir whole_dir{"supersede_whole"};
  const auto whole = run_range(whole_dir.path(), kFromWeek, kToWeek);
  ASSERT_TRUE(whole.ok) << whole.error;

  // Machine A has the complete week; machine B contributes a partial
  // shard of the same week. Folding the partial in would double-count —
  // the complete copy must win.
  const TempDir a{"supersede_a"};
  const TempDir b{"supersede_b"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kToWeek).ok);
  const std::size_t total = week_samples_->at(kFromWeek).size();
  save_partial_shard(b.path(), kFromWeek, 0, total / 2);

  const TempDir out{"supersede_out"};
  const auto merged = merge({a.path(), b.path()}, out.path());
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(merged.weeks_copied, 3u);
  EXPECT_EQ(merged.weeks_rederived, 0u);
  expect_matches_union(merged, whole, out.path(), whole_dir.path());
}

TEST_F(StoreMergeTest, StaleProvenanceIsSkippedNotMerged) {
  const TempDir a{"stale_a"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kToWeek).ok);  // fingerprint 0

  // The merge expects a different model fingerprint: nothing in A is an
  // observation of that model, so nothing may reach the output.
  const TempDir out{"stale_out"};
  const auto merged =
      merge({a.path()}, out.path(), /*model_fingerprint=*/0xBBBB);
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(merged.snapshots_skipped_stale, 3u);
  EXPECT_TRUE(merged.weeks.empty());
  EXPECT_EQ(merged.weeks_copied, 0u);
  for (int week = kFromWeek; week <= kToWeek; ++week) {
    EXPECT_FALSE(fs::exists(SnapshotStore{out.path()}.path_for(week)));
    // Skipped, not quarantined: the input store is untouched.
    EXPECT_TRUE(fs::exists(SnapshotStore{a.path()}.path_for(week)));
  }
}

TEST_F(StoreMergeTest, EveryStorageFaultClassIsQuarantinedDuringMerge) {
  const TempDir whole_dir{"rot_whole"};
  const auto whole = run_range(whole_dir.path(), kFromWeek, kToWeek);
  ASSERT_TRUE(whole.ok) << whole.error;

  for (const StorageFault fault : kAllStorageFaults) {
    SCOPED_TRACE(storage_fault_name(fault));
    // A holds the full range with a rotted middle week; B holds a healthy
    // copy of that week — redundancy is exactly what merge is for.
    const TempDir a{std::string{"rot_a_"} + storage_fault_name(fault)};
    const TempDir b{std::string{"rot_b_"} + storage_fault_name(fault)};
    ASSERT_TRUE(run_range(a.path(), kFromWeek, kToWeek).ok);
    ASSERT_TRUE(run_range(b.path(), kFromWeek + 1, kFromWeek + 1).ok);

    const std::string victim = SnapshotStore{a.path()}.path_for(kFromWeek + 1);
    auto image = read_file(victim);
    StoreFaultInjector injector{7};
    injector.apply(fault, image);
    write_file(victim, image);

    const TempDir out{std::string{"rot_out_"} + storage_fault_name(fault)};
    const auto merged = merge({a.path(), b.path()}, out.path());
    ASSERT_TRUE(merged.ok) << merged.error;
    // The rot was quarantined in place; B's healthy copy carried the week.
    ASSERT_EQ(merged.quarantined.size(), 1u);
    EXPECT_EQ(merged.quarantined[0].file, victim);
    EXPECT_NE(merged.quarantined[0].error, SnapshotError::kNone);
    EXPECT_TRUE(fs::exists(merged.quarantined[0].quarantined_as));
    EXPECT_EQ(merged.weeks_copied, 3u);
    expect_matches_union(merged, whole, out.path(), whole_dir.path());
  }
}

TEST_F(StoreMergeTest, UndecodableShardIsQuarantinedAndTheWeekRederived) {
  // Week 45 exists as two partial shards. A's checksums, but one of its
  // activity records holds a byte count the table cannot represent.
  const TempDir a{"undecodable_a"};
  const TempDir b{"undecodable_b"};
  const int week = kFromWeek + 1;
  const std::size_t total = week_samples_->at(week).size();
  save_partial_shard(a.path(), week, 0, total / 2, /*unrepresentable=*/true);
  save_partial_shard(b.path(), week, total / 2, total);

  const TempDir out{"undecodable_out"};
  const auto merged = merge({a.path(), b.path()}, out.path());
  ASSERT_TRUE(merged.ok) << merged.error;
  const std::string victim = SnapshotStore{a.path()}.path_for(week);
  ASSERT_EQ(merged.quarantined.size(), 1u);
  EXPECT_EQ(merged.quarantined[0].file, victim);
  EXPECT_EQ(merged.quarantined[0].error, SnapshotError::kUndecodable);
  EXPECT_TRUE(fs::exists(merged.quarantined[0].quarantined_as));
  EXPECT_FALSE(fs::exists(victim));

  // The week is re-derived from the copy that remains, exactly as a merge
  // of B alone derives it.
  ASSERT_EQ(merged.weeks.size(), 1u);
  EXPECT_TRUE(merged.weeks[0].rederived);
  EXPECT_EQ(merged.weeks[0].copies, 1u);
  const TempDir b_out{"undecodable_b_out"};
  const auto b_only = merge({b.path()}, b_out.path());
  ASSERT_TRUE(b_only.ok) << b_only.error;
  ASSERT_EQ(b_only.weeks.size(), 1u);
  EXPECT_EQ(SnapshotCodec::encode_report(merged.weeks[0].report),
            SnapshotCodec::encode_report(b_only.weeks[0].report));
  EXPECT_EQ(read_file(SnapshotStore{out.path()}.path_for(week)),
            read_file(SnapshotStore{b_out.path()}.path_for(week)));

  // With A's only copy of the week moved aside, merging A alone yields
  // no week at all rather than a truncated one.
  const TempDir a_out{"undecodable_a_out"};
  save_partial_shard(a.path(), week, 0, total / 2, /*unrepresentable=*/true);
  const auto a_only = merge({a.path()}, a_out.path());
  ASSERT_TRUE(a_only.ok) << a_only.error;
  EXPECT_EQ(a_only.quarantined.size(), 1u);
  EXPECT_TRUE(a_only.weeks.empty());
  EXPECT_FALSE(fs::exists(SnapshotStore{a_out.path()}.path_for(week)));
}

TEST_F(StoreMergeTest, RepeatedMergeIsIdempotent) {
  const TempDir a{"idem_a"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kToWeek).ok);

  const TempDir out{"idem_out"};
  const auto first = merge({a.path()}, out.path());
  ASSERT_TRUE(first.ok) << first.error;
  std::map<int, std::vector<std::byte>> bytes;
  for (int week = kFromWeek; week <= kToWeek; ++week)
    bytes[week] = read_file(SnapshotStore{out.path()}.path_for(week));

  // Re-running the merge (an interrupted merge's recovery story) simply
  // re-commits identical images.
  const auto second = merge({a.path()}, out.path());
  ASSERT_TRUE(second.ok) << second.error;
  for (int week = kFromWeek; week <= kToWeek; ++week)
    EXPECT_EQ(read_file(SnapshotStore{out.path()}.path_for(week)),
              bytes[week]);
}

TEST_F(StoreMergeTest, NoInputsIsAPlainError) {
  const TempDir out{"noinput_out"};
  const auto merged = merge({}, out.path());
  EXPECT_FALSE(merged.ok);
  EXPECT_FALSE(merged.error.empty());
}

TEST_F(StoreMergeTest, UnreadableInputIsFatalNotSilent) {
  const TempDir a{"unreadable_a"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kToWeek).ok);
  const TempDir blocked{"unreadable_blocked"};
  fs::create_directories(blocked.path());
  const std::string occupied = blocked.path() + "/occupied";
  write_file(occupied, std::vector<std::byte>(1));

  const TempDir out{"unreadable_out"};
  const auto merged = merge({a.path(), occupied}, out.path());
  EXPECT_FALSE(merged.ok);
  EXPECT_TRUE(merged.store_unreadable);
}

}  // namespace
}  // namespace ixp::store
