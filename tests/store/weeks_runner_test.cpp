// The resumable longitudinal driver's acceptance contract: for every
// injected crash point and every storage fault class, a re-run of
// `weeks` resumes from the durable snapshots and produces a final
// longitudinal report byte-identical to an uninterrupted run. Runs under
// both sanitizer presets (faults + tsan labels) — the driver sits on top
// of the parallel engine.
#include "store/weeks_runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "store/crc32c.hpp"
#include "store/snapshot_codec.hpp"
#include "store/snapshot_store.hpp"
#include "support/store_fault.hpp"

namespace ixp::store {
namespace {

namespace fs = std::filesystem;

constexpr int kFromWeek = 44;
constexpr int kToWeek = 46;

class WeeksRunnerTest : public ::testing::Test {
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

  /// One full driver invocation against `dir`. The fingerprints default
  /// to 0 = "unchanged inputs" — tests that exercise the provenance check
  /// pass distinct values across runs.
  static WeeksResult run_weeks(const std::string& dir,
                               const CommitHooks* hooks = nullptr,
                               unsigned threads = 2,
                               std::uint64_t model_fingerprint = 0,
                               std::uint64_t ingest_fingerprint = 0) {
    auto vp = study_->vantage();
    core::ParallelOptions popt;
    popt.threads = threads;
    core::ParallelAnalyzer analyzer{vp, popt};
    WeeksRunner runner{vp, analyzer, SnapshotStore{dir}};
    WeeksOptions options;
    options.from_week = kFromWeek;
    options.to_week = kToWeek;
    options.model_fingerprint = model_fingerprint;
    options.ingest_fingerprint = ingest_fingerprint;
    return runner.run(options, source_factory(), fetcher_factory(), hooks);
  }

  static analysis::Study* study_;
};

analysis::Study* WeeksRunnerTest::study_ = nullptr;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(testing::TempDir() + "ixpscope_weeks_" + tag + "_" +
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

/// Byte-level equality of two runs: every per-week report encodes to the
/// same bytes and the longitudinal summaries are equal.
void expect_runs_identical(const WeeksResult& a, const WeeksResult& b) {
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_EQ(a.weeks.size(), b.weeks.size());
  for (std::size_t i = 0; i < a.weeks.size(); ++i) {
    SCOPED_TRACE("week " + std::to_string(a.weeks[i].week));
    EXPECT_EQ(a.weeks[i].week, b.weeks[i].week);
    EXPECT_EQ(SnapshotCodec::encode_report(a.weeks[i].report),
              SnapshotCodec::encode_report(b.weeks[i].report));
  }
  EXPECT_EQ(a.longitudinal, b.longitudinal);
}

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

/// The bytes that validating each week's canonical snapshot once
/// checksums.
std::uint64_t checksummed_once(const SnapshotStore& store) {
  std::uint64_t once = 0;
  for (int week = kFromWeek; week <= kToWeek; ++week) {
    const auto image = read_file(store.path_for(week));
    const std::uint64_t before = crc32c_bytes();
    EXPECT_EQ(validate_image(image), SnapshotError::kNone);
    once += crc32c_bytes() - before;
  }
  return once;
}

void store_le32(std::vector<std::byte>& image, std::size_t at,
                std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    image[at + i] = static_cast<std::byte>(value >> (8 * i));
}

/// Re-stamps a sealed snapshot image as format `version`: the header and
/// footer version fields, and the footer's CRC over the header, so the
/// image is a well-sealed file of that format.
void stamp_format_version(std::vector<std::byte>& image,
                          std::uint32_t version) {
  const std::size_t footer = image.size() - kSnapshotFooterBytes;
  store_le32(image, 8, version);
  store_le32(image, footer + 8, version);
  store_le32(image, footer + 12,
             crc32c(std::span<const std::byte>{image}.first(
                 kSnapshotHeaderBytes)));
}

TEST_F(WeeksRunnerTest, FirstRunComputesSecondRunResumesByteIdentical) {
  const TempDir dir{"resume"};
  const auto first = run_weeks(dir.path());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.weeks_computed, 3u);
  EXPECT_EQ(first.weeks_resumed, 0u);
  // Each week is sealed as exactly the two sections its readers open.
  for (int week = kFromWeek; week <= kToWeek; ++week) {
    const SnapshotFile file =
        SnapshotFile::open(SnapshotStore{dir.path()}.path_for(week));
    ASSERT_TRUE(file.ok()) << "week " << week;
    ASSERT_EQ(file.sections().size(), 2u);
    EXPECT_EQ(file.sections()[0].id, kReportSection);
    EXPECT_EQ(file.sections()[1].id, kProvenanceSection);
  }

  const auto second = run_weeks(dir.path(), nullptr, /*threads=*/4);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.weeks_computed, 0u);
  EXPECT_EQ(second.weeks_resumed, 3u);
  for (const auto& outcome : second.weeks) EXPECT_TRUE(outcome.resumed);
  expect_runs_identical(first, second);

  // The §4 summary is non-trivial at this scale, not a vacuous equality.
  EXPECT_GT(second.longitudinal.server_universe, 0u);
  EXPECT_GT(second.longitudinal.always_on_servers, 0u);
  EXPECT_GT(second.longitudinal.mean_weekly_churn, 0.0);
}

TEST_F(WeeksRunnerTest, NoOpResumeChecksumsEachSnapshotOnce) {
  const TempDir dir{"crc_once"};
  ASSERT_TRUE(run_weeks(dir.path()).ok);

  const std::uint64_t once = checksummed_once(SnapshotStore{dir.path()});
  ASSERT_GT(once, 0u);

  // The scan checksums each file; the load of the same file does not.
  const std::uint64_t before = crc32c_bytes();
  const auto resumed = run_weeks(dir.path());
  const std::uint64_t checksummed = crc32c_bytes() - before;
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.weeks_resumed, 3u);
  EXPECT_TRUE(resumed.quarantined.empty());
  EXPECT_EQ(checksummed, once);
}

TEST_F(WeeksRunnerTest, ScanSkipsSnapshotsOutsideTheirCanonicalName) {
  const TempDir dir{"orphans"};
  ASSERT_TRUE(run_weeks(dir.path()).ok);

  // Week 45's snapshot renamed to `week_45.snap`, and a copy of it at
  // `week_-045.snap`: both names parse to a week, neither is path_for's.
  const SnapshotStore store{dir.path()};
  const std::string renamed = dir.path() + "/week_45.snap";
  const std::string negative = dir.path() + "/week_-045.snap";
  fs::rename(store.path_for(45), renamed);
  fs::copy_file(renamed, negative);

  const auto recomputed = run_weeks(dir.path());
  ASSERT_TRUE(recomputed.ok) << recomputed.error;
  EXPECT_EQ(recomputed.weeks_resumed, 2u);
  EXPECT_EQ(recomputed.weeks_computed, 1u);
  EXPECT_TRUE(recomputed.quarantined.empty());
  EXPECT_TRUE(fs::exists(store.path_for(45)));

  const std::uint64_t once = checksummed_once(store);
  const std::uint64_t before = crc32c_bytes();
  const auto resumed = run_weeks(dir.path());
  const std::uint64_t checksummed = crc32c_bytes() - before;
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.weeks_resumed, 3u);
  EXPECT_EQ(resumed.weeks_computed, 0u);
  ASSERT_EQ(resumed.weeks.size(), 3u);
  for (int week = kFromWeek; week <= kToWeek; ++week)
    EXPECT_EQ(resumed.weeks[week - kFromWeek].week, week);
  EXPECT_EQ(store.scan().weeks, (std::vector<int>{44, 45, 46}));
  // Neither orphan was checksummed, quarantined or removed.
  EXPECT_EQ(checksummed, once);
  EXPECT_TRUE(resumed.quarantined.empty());
  EXPECT_TRUE(fs::exists(renamed));
  EXPECT_TRUE(fs::exists(negative));
}

TEST_F(WeeksRunnerTest, EveryCrashPointRecoversToByteIdenticalRun) {
  const TempDir baseline_dir{"crash_baseline"};
  const auto baseline = run_weeks(baseline_dir.path());
  ASSERT_TRUE(baseline.ok) << baseline.error;

  for (const CrashPoint point : kAllCrashPoints) {
    SCOPED_TRACE(crash_point_name(point));
    const TempDir dir{std::string{"crash_"} + crash_point_name(point)};

    // First attempt dies at the injected point of week 44's commit.
    const CommitHooks hooks = StoreFaultInjector::crash_at(point);
    EXPECT_THROW((void)run_weeks(dir.path(), &hooks), InjectedCrash);

    // The restart: sweeps any crash residue, resumes whatever is durable,
    // recomputes the rest — and matches the uninterrupted run exactly.
    const auto recovered = run_weeks(dir.path());
    ASSERT_TRUE(recovered.ok) << recovered.error;
    expect_runs_identical(baseline, recovered);
    if (point == CrashPoint::kAfterRename) {
      // The rename beat the crash: week 44 was durable, so the restart
      // must not have recomputed it.
      EXPECT_EQ(recovered.weeks_resumed, 1u);
      EXPECT_EQ(recovered.weeks_computed, 2u);
    } else {
      EXPECT_EQ(recovered.weeks_resumed, 0u);
      EXPECT_EQ(recovered.weeks_computed, 3u);
      EXPECT_GE(recovered.stale_temps_removed,
                point == CrashPoint::kMidTempWrite ? 1u : 0u);
    }
    EXPECT_TRUE(recovered.quarantined.empty());
  }
}

TEST_F(WeeksRunnerTest, EveryStorageFaultIsQuarantinedAndRecomputed) {
  const TempDir baseline_dir{"rot_baseline"};
  const auto baseline = run_weeks(baseline_dir.path());
  ASSERT_TRUE(baseline.ok) << baseline.error;

  for (const StorageFault fault : kAllStorageFaults) {
    SCOPED_TRACE(storage_fault_name(fault));
    const TempDir dir{std::string{"rot_"} + storage_fault_name(fault)};
    ASSERT_TRUE(run_weeks(dir.path()).ok);

    // Rot the middle week's committed snapshot.
    const SnapshotStore store{dir.path()};
    const std::string victim = store.path_for(45);
    auto image = read_file(victim);
    StoreFaultInjector injector{11};
    injector.apply(fault, image);
    write_file(victim, image);

    const auto recovered = run_weeks(dir.path());
    ASSERT_TRUE(recovered.ok) << recovered.error;
    // The rot was caught, moved aside, and only that week recomputed.
    ASSERT_EQ(recovered.quarantined.size(), 1u);
    EXPECT_EQ(recovered.quarantined[0].file, victim);
    EXPECT_NE(recovered.quarantined[0].error, SnapshotError::kNone);
    EXPECT_TRUE(fs::exists(recovered.quarantined[0].quarantined_as));
    EXPECT_EQ(recovered.weeks_resumed, 2u);
    EXPECT_EQ(recovered.weeks_computed, 1u);
    expect_runs_identical(baseline, recovered);

    // The recompute re-committed the week: a third run resumes everything.
    const auto third = run_weeks(dir.path());
    ASSERT_TRUE(third.ok) << third.error;
    EXPECT_EQ(third.weeks_resumed, 3u);
    expect_runs_identical(baseline, third);
  }
}

TEST_F(WeeksRunnerTest, PreviousFormatVersionIsQuarantinedAndRecomputed) {
  const TempDir dir{"old_version"};
  const auto baseline = run_weeks(dir.path());
  ASSERT_TRUE(baseline.ok) << baseline.error;

  // Turn it into a store written by the previous format: every week
  // stamped with the version before this one.
  const SnapshotStore store{dir.path()};
  for (int week = kFromWeek; week <= kToWeek; ++week) {
    auto image = read_file(store.path_for(week));
    stamp_format_version(image, kFormatVersion - 1);
    write_file(store.path_for(week), image);
  }

  const auto recovered = run_weeks(dir.path());
  ASSERT_TRUE(recovered.ok) << recovered.error;
  ASSERT_EQ(recovered.quarantined.size(), 3u);
  for (const auto& event : recovered.quarantined) {
    EXPECT_EQ(event.error, SnapshotError::kBadVersion);
    EXPECT_TRUE(fs::exists(event.quarantined_as)) << event.quarantined_as;
    EXPECT_NE(event.quarantined_as.find("bad-version"), std::string::npos);
  }
  EXPECT_EQ(recovered.weeks_resumed, 0u);
  EXPECT_EQ(recovered.weeks_computed, 3u);
  expect_runs_identical(baseline, recovered);

  // The recompute committed the current format: the next run resumes all.
  const auto warm = run_weeks(dir.path());
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.weeks_resumed, 3u);
  EXPECT_EQ(warm.weeks_computed, 0u);
  EXPECT_TRUE(warm.quarantined.empty());
  expect_runs_identical(baseline, warm);
}

TEST_F(WeeksRunnerTest, MatchingProvenanceSkipsStaleProvenanceRecomputes) {
  const TempDir dir{"provenance"};

  // Cold run stamps fingerprint A into every snapshot.
  const auto cold =
      run_weeks(dir.path(), nullptr, 2, /*model=*/0xAAAA, /*ingest=*/0x1111);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.weeks_computed, 3u);
  EXPECT_EQ(cold.weeks_stale, 0u);

  // Same fingerprints: a pure resume — the incremental no-op re-run.
  const auto resumed =
      run_weeks(dir.path(), nullptr, 2, 0xAAAA, 0x1111);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.weeks_resumed, 3u);
  EXPECT_EQ(resumed.weeks_computed, 0u);
  EXPECT_EQ(resumed.weeks_stale, 0u);
  expect_runs_identical(cold, resumed);

  // Model fingerprint changed: every durable week is stale — quarantined
  // with the provenance error class (not deleted) and recomputed.
  const auto stale =
      run_weeks(dir.path(), nullptr, 2, /*model=*/0xBBBB, 0x1111);
  ASSERT_TRUE(stale.ok) << stale.error;
  EXPECT_EQ(stale.weeks_stale, 3u);
  EXPECT_EQ(stale.weeks_computed, 3u);
  EXPECT_EQ(stale.weeks_resumed, 0u);
  ASSERT_EQ(stale.quarantined.size(), 3u);
  for (const auto& event : stale.quarantined) {
    EXPECT_EQ(event.error, SnapshotError::kStaleProvenance);
    EXPECT_TRUE(fs::exists(event.quarantined_as)) << event.quarantined_as;
    EXPECT_NE(event.quarantined_as.find("stale-provenance"),
              std::string::npos);
  }
  // The fingerprint gates reuse, not the computation itself: the recomputed
  // reports are byte-identical to the original run's.
  expect_runs_identical(cold, stale);

  // And the recompute re-stamped the new fingerprint: next run resumes.
  const auto warm = run_weeks(dir.path(), nullptr, 2, 0xBBBB, 0x1111);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.weeks_resumed, 3u);
  EXPECT_EQ(warm.weeks_stale, 0u);
}

TEST_F(WeeksRunnerTest, IngestFingerprintChangeAlsoInvalidates) {
  const TempDir dir{"ingest_provenance"};
  ASSERT_TRUE(run_weeks(dir.path(), nullptr, 2, 0xAAAA, 0x1111).ok);
  const auto stale =
      run_weeks(dir.path(), nullptr, 2, 0xAAAA, /*ingest=*/0x2222);
  ASSERT_TRUE(stale.ok) << stale.error;
  EXPECT_EQ(stale.weeks_stale, 3u);
  EXPECT_EQ(stale.weeks_resumed, 0u);
}

TEST_F(WeeksRunnerTest, ThreadCountDoesNotChangeTheBytes) {
  const TempDir dir1{"threads1"};
  const TempDir dir4{"threads4"};
  const auto serial = run_weeks(dir1.path(), nullptr, /*threads=*/1);
  const auto parallel = run_weeks(dir4.path(), nullptr, /*threads=*/4);
  expect_runs_identical(serial, parallel);
  // The durable artifacts themselves are byte-identical too.
  for (int week = kFromWeek; week <= kToWeek; ++week) {
    SCOPED_TRACE("week " + std::to_string(week));
    EXPECT_EQ(read_file(SnapshotStore{dir1.path()}.path_for(week)),
              read_file(SnapshotStore{dir4.path()}.path_for(week)));
  }
}

TEST_F(WeeksRunnerTest, EmptyRangeIsAPlainError) {
  const TempDir dir{"empty"};
  auto vp = study_->vantage();
  core::ParallelOptions popt;
  core::ParallelAnalyzer analyzer{vp, popt};
  WeeksRunner runner{vp, analyzer, SnapshotStore{dir.path()}};
  WeeksOptions options;
  options.from_week = 46;
  options.to_week = 44;
  const auto result =
      runner.run(options, source_factory(), fetcher_factory());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.store_unreadable);
  EXPECT_FALSE(result.error.empty());
}

TEST_F(WeeksRunnerTest, RangeLongerThanTheFoldFailsBeforeAnyWork) {
  const TempDir dir{"too_long"};
  auto vp = study_->vantage();
  core::ParallelOptions popt;
  core::ParallelAnalyzer analyzer{vp, popt};
  WeeksRunner runner{vp, analyzer, SnapshotStore{dir.path()}};
  WeeksOptions options;
  options.from_week = 1;
  options.to_week = 1 + analysis::ChurnTracker::kMaxWeeks;  // one week over
  int sources = 0;
  const WeeksRunner::SourceFactory counting =
      [&](int week) -> std::unique_ptr<ingest::IngestSource> {
    ++sources;
    return source_factory()(week);
  };
  const auto result = runner.run(options, counting, fetcher_factory());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.store_unreadable);
  EXPECT_NE(result.error.find("covers at most"), std::string::npos)
      << result.error;
  EXPECT_EQ(sources, 0);
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST_F(WeeksRunnerTest, UnusableStoreDirectorySetsTheDistinctFlag) {
  const TempDir dir{"blocked"};
  fs::create_directories(dir.path());
  const std::string occupied = dir.path() + "/occupied";
  write_file(occupied, std::vector<std::byte>(1));
  const auto result = run_weeks(occupied);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.store_unreadable);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace ixp::store
