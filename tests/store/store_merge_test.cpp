// The store-merge contract (DESIGN.md §16): folding snapshot stores from
// separate machines into one is byte-identical to a single-process run
// over the union of weeks — for disjoint partitions and overlapping
// (redundant) ranges. Corrupt inputs are quarantined in place across the
// whole storage-fault matrix; stale provenance is skipped, never merged;
// a union longer than the §4 fold covers is an error.
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
#include "store/weeks_runner.hpp"
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
  }

  static void TearDownTestSuite() { delete study_; }

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
    MergeOptions options;
    options.inputs = inputs;
    options.out = out;
    options.model_fingerprint = model_fingerprint;
    options.ingest_fingerprint = ingest_fingerprint;
    return merge_stores(options);
  }

  static analysis::Study* study_;
};

analysis::Study* StoreMergeTest::study_ = nullptr;

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
  EXPECT_EQ(merged.snapshots_skipped_stale, 0u);
  for (const auto& week : merged.weeks) EXPECT_EQ(week.copies, 1u);
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

TEST_F(StoreMergeTest, UnionLongerThanTheFoldIsAnError) {
  // B holds a copy of A's week sealed under a name kMaxWeeks later: the
  // union spans one week more than the §4 fold covers.
  const TempDir a{"too_long_a"};
  const TempDir b{"too_long_b"};
  ASSERT_TRUE(run_range(a.path(), kFromWeek, kFromWeek).ok);
  fs::create_directories(b.path());
  fs::copy_file(SnapshotStore{a.path()}.path_for(kFromWeek),
                SnapshotStore{b.path()}.path_for(
                    kFromWeek + analysis::ChurnTracker::kMaxWeeks));

  const TempDir out{"too_long_out"};
  const auto merged = merge({a.path(), b.path()}, out.path());
  EXPECT_FALSE(merged.ok);
  EXPECT_FALSE(merged.store_unreadable);
  EXPECT_NE(merged.error.find("covers at most"), std::string::npos)
      << merged.error;
  EXPECT_TRUE(fs::is_empty(out.path()));  // no week was written
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
