// The distributed driver's acceptance contract (DESIGN.md §16): `weeks
// --jobs N` — forked workers sharing one snapshot store — produces
// per-week reports, durable snapshot bytes, and a §4 summary that are
// byte-identical to a single-process run, for any job count and any
// worker crash pattern. Worker deaths are contained: the parent's fold
// recomputes whatever the dead worker failed to commit and reports the
// failure per worker instead of dying with it.
#include "store/weeks_mapreduce.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "store/snapshot_codec.hpp"

namespace ixp::store {
namespace {

namespace fs = std::filesystem;

constexpr int kFromWeek = 44;
constexpr int kToWeek = 47;
constexpr int kWeekCount = kToWeek - kFromWeek + 1;

class WeeksMapReduceTest : public ::testing::Test {
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

  /// One map-reduce invocation against `dir` with `jobs` workers.
  static MapReduceResult run_jobs(
      const std::string& dir, int jobs,
      const std::function<void(int, int)>& before_week = {}) {
    auto vp = study_->vantage();
    core::ParallelOptions popt;
    popt.threads = 2;
    core::ParallelAnalyzer analyzer{vp, popt};
    WeeksRunner runner{vp, analyzer, SnapshotStore{dir}};
    MapReduceOptions options;
    options.weeks.from_week = kFromWeek;
    options.weeks.to_week = kToWeek;
    options.jobs = jobs;
    options.before_week = before_week;
    return run_weeks_mapreduce(runner, options, source_factory(),
                               fetcher_factory());
  }

  static analysis::Study* study_;
};

analysis::Study* WeeksMapReduceTest::study_ = nullptr;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(testing::TempDir() + "ixpscope_mapreduce_" + tag + "_" +
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

void expect_folds_identical(const WeeksResult& a, const WeeksResult& b) {
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

TEST_F(WeeksMapReduceTest, JobCountDoesNotChangeTheBytes) {
  const TempDir serial_dir{"serial"};
  const auto serial = run_jobs(serial_dir.path(), 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_TRUE(serial.workers.empty());  // jobs=1 never forks
  EXPECT_FALSE(serial.worker_failed);

  for (const int jobs : {2, 3, kWeekCount}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const TempDir dir{"jobs" + std::to_string(jobs)};
    const auto forked = run_jobs(dir.path(), jobs);
    ASSERT_TRUE(forked.ok) << forked.error;
    ASSERT_EQ(forked.workers.size(), static_cast<std::size_t>(jobs));
    for (const auto& worker : forked.workers) {
      EXPECT_TRUE(worker.ok()) << "worker " << worker.status.worker;
    }
    EXPECT_FALSE(forked.worker_failed);
    // Every week was committed by a worker, so the fold resumed them all.
    EXPECT_EQ(forked.fold.weeks_resumed, static_cast<std::size_t>(kWeekCount));
    EXPECT_EQ(forked.fold.weeks_computed, 0u);
    expect_folds_identical(serial.fold, forked.fold);

    // The durable artifacts match byte for byte too.
    for (int week = kFromWeek; week <= kToWeek; ++week) {
      SCOPED_TRACE("week " + std::to_string(week));
      EXPECT_EQ(read_file(SnapshotStore{serial_dir.path()}.path_for(week)),
                read_file(SnapshotStore{dir.path()}.path_for(week)));
    }
  }
}

TEST_F(WeeksMapReduceTest, WorkersAreDealtTheFullRangeRoundRobin) {
  const TempDir dir{"deal"};
  const auto result = run_jobs(dir.path(), 3);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.workers.size(), 3u);
  std::vector<int> dealt;
  for (const auto& worker : result.workers)
    dealt.insert(dealt.end(), worker.weeks.begin(), worker.weeks.end());
  std::sort(dealt.begin(), dealt.end());
  std::vector<int> expected;
  for (int week = kFromWeek; week <= kToWeek; ++week)
    expected.push_back(week);
  EXPECT_EQ(dealt, expected);
}

TEST_F(WeeksMapReduceTest, JobsAreClampedToTheWeekCount) {
  const TempDir dir{"clamp"};
  const auto result = run_jobs(dir.path(), kWeekCount + 16);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.workers.size(), static_cast<std::size_t>(kWeekCount));
  for (const auto& worker : result.workers)
    EXPECT_EQ(worker.weeks.size(), 1u);
}

TEST_F(WeeksMapReduceTest, KilledWorkerIsContainedAndItsWeeksRecomputed) {
  const TempDir baseline_dir{"kill_baseline"};
  const auto baseline = run_jobs(baseline_dir.path(), 1);
  ASSERT_TRUE(baseline.ok) << baseline.error;

  // Worker 1 dies by SIGKILL before touching its second week — after one
  // durable commit, mid-assignment. The hook runs in the forked child, so
  // the kill takes out exactly that worker process.
  const TempDir dir{"kill"};
  int seen = 0;
  const auto result = run_jobs(dir.path(), 2, [&seen](int worker, int) {
    if (worker == 1 && ++seen == 2) ::raise(SIGKILL);
  });

  // Contained: the run as a whole succeeded, the failure is attributed.
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.worker_failed);
  ASSERT_EQ(result.workers.size(), 2u);
  EXPECT_TRUE(result.workers[0].ok());
  EXPECT_FALSE(result.workers[1].ok());
  EXPECT_TRUE(result.workers[1].status.signaled);
  EXPECT_EQ(result.workers[1].status.term_signal, SIGKILL);

  // The fold recomputed the dead worker's missing week(s); the result is
  // still byte-identical to the uninterrupted single-process run.
  EXPECT_GT(result.fold.weeks_computed, 0u);
  EXPECT_EQ(result.fold.weeks_computed + result.fold.weeks_resumed,
            static_cast<std::size_t>(kWeekCount));
  expect_folds_identical(baseline.fold, result.fold);
  for (int week = kFromWeek; week <= kToWeek; ++week) {
    SCOPED_TRACE("week " + std::to_string(week));
    EXPECT_EQ(read_file(SnapshotStore{baseline_dir.path()}.path_for(week)),
              read_file(SnapshotStore{dir.path()}.path_for(week)));
  }
}

TEST_F(WeeksMapReduceTest, EveryWorkerKilledStillConverges) {
  const TempDir baseline_dir{"massacre_baseline"};
  const auto baseline = run_jobs(baseline_dir.path(), 1);
  ASSERT_TRUE(baseline.ok) << baseline.error;

  // All workers die immediately: the map phase contributes nothing and
  // the fold computes the entire range itself.
  const TempDir dir{"massacre"};
  const auto result =
      run_jobs(dir.path(), 2, [](int, int) { ::raise(SIGKILL); });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.worker_failed);
  for (const auto& worker : result.workers) EXPECT_FALSE(worker.ok());
  EXPECT_EQ(result.fold.weeks_computed, static_cast<std::size_t>(kWeekCount));
  expect_folds_identical(baseline.fold, result.fold);
}

TEST_F(WeeksMapReduceTest, TwoRacingFullRunnersConvergeOnOneStore) {
  const TempDir baseline_dir{"race_baseline"};
  const auto baseline = run_jobs(baseline_dir.path(), 1);
  ASSERT_TRUE(baseline.ok) << baseline.error;

  // Not a partition: two uncoordinated processes each run the FULL range
  // against the same --dir (the operator double-launch scenario). Both
  // may compute and double-commit any week; the commit protocol must make
  // them converge to one valid snapshot per week.
  const TempDir dir{"race"};
  const auto statuses = core::ProcessPool::run(2, [&](int) -> int {
    auto vp = study_->vantage();
    core::ParallelOptions popt;
    popt.threads = 2;
    core::ParallelAnalyzer analyzer{vp, popt};
    WeeksRunner runner{vp, analyzer, SnapshotStore{dir.path()}};
    WeeksOptions options;
    options.from_week = kFromWeek;
    options.to_week = kToWeek;
    const auto r = runner.run(options, source_factory(), fetcher_factory());
    return r.ok ? 0 : 1;
  });
  for (const auto& status : statuses)
    EXPECT_TRUE(status.ok()) << "runner " << status.worker;

  // One valid snapshot per week, byte-identical to the single-run store.
  const auto scan = SnapshotStore{dir.path()}.scan();
  ASSERT_TRUE(scan.readable) << scan.error;
  EXPECT_TRUE(scan.quarantined.empty());
  ASSERT_EQ(scan.weeks.size(), static_cast<std::size_t>(kWeekCount));
  for (int week = kFromWeek; week <= kToWeek; ++week) {
    SCOPED_TRACE("week " + std::to_string(week));
    EXPECT_EQ(read_file(SnapshotStore{dir.path()}.path_for(week)),
              read_file(SnapshotStore{baseline_dir.path()}.path_for(week)));
  }
}

TEST_F(WeeksMapReduceTest, EmptyRangeIsAPlainError) {
  const TempDir dir{"empty"};
  auto vp = study_->vantage();
  core::ParallelOptions popt;
  core::ParallelAnalyzer analyzer{vp, popt};
  WeeksRunner runner{vp, analyzer, SnapshotStore{dir.path()}};
  MapReduceOptions options;
  options.weeks.from_week = kToWeek;
  options.weeks.to_week = kFromWeek;
  options.jobs = 2;
  const auto result = run_weeks_mapreduce(runner, options, source_factory(),
                                          fetcher_factory());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.store_unreadable);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.workers.empty());
}

TEST_F(WeeksMapReduceTest, RangeLongerThanTheFoldFailsBeforeForking) {
  const TempDir dir{"too_long"};
  auto vp = study_->vantage();
  core::ParallelOptions popt;
  core::ParallelAnalyzer analyzer{vp, popt};
  WeeksRunner runner{vp, analyzer, SnapshotStore{dir.path()}};
  MapReduceOptions options;
  options.weeks.from_week = 1;
  options.weeks.to_week = 40;
  options.jobs = 2;
  const auto result = run_weeks_mapreduce(runner, options, source_factory(),
                                          fetcher_factory());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.store_unreadable);
  EXPECT_NE(result.error.find("covers at most"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.workers.empty());  // nothing was forked
  EXPECT_FALSE(fs::exists(dir.path()));  // and no worker committed a week
}

TEST_F(WeeksMapReduceTest, UnusableStoreFailsBeforeForking) {
  const TempDir dir{"blocked"};
  fs::create_directories(dir.path());
  const std::string occupied = dir.path() + "/occupied";
  { std::ofstream out{occupied}; out << "x"; }
  auto vp = study_->vantage();
  core::ParallelOptions popt;
  core::ParallelAnalyzer analyzer{vp, popt};
  WeeksRunner runner{vp, analyzer, SnapshotStore{occupied}};
  MapReduceOptions options;
  options.weeks.from_week = kFromWeek;
  options.weeks.to_week = kToWeek;
  options.jobs = 2;
  const auto result = run_weeks_mapreduce(runner, options, source_factory(),
                                          fetcher_factory());
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.store_unreadable);
  EXPECT_TRUE(result.workers.empty());  // nothing was forked
}

}  // namespace
}  // namespace ixp::store
