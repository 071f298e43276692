// Concurrent-store coverage (DESIGN.md §16): the snapshot store is shared
// by racing `weeks` processes, and its safety story is the flock-owned
// pid-suffixed temp plus the atomic rename. These tests drive the
// primitives directly: a live commit's temp must survive a concurrent
// scan, an orphaned temp (owner died) must be swept, and double-commits
// of the same week — the legal outcome of two processes computing the
// same deterministic pipeline — must converge to one valid snapshot.
#include "store/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/process_pool.hpp"

namespace ixp::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(testing::TempDir() + "ixpscope_race_" + tag + "_" +
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

/// A small but real two-section image.
std::vector<std::byte> test_image() {
  std::vector<std::byte> shard(4096);
  std::vector<std::byte> report(512);
  for (std::size_t i = 0; i < shard.size(); ++i)
    shard[i] = static_cast<std::byte>(i * 31 + 7);
  for (std::size_t i = 0; i < report.size(); ++i)
    report[i] = static_cast<std::byte>(i * 17 + 3);
  const Section sections[] = {
      {kShardSection, shard},
      {kReportSection, report},
  };
  return encode_snapshot(sections);
}

TEST(StoreRace, LiveCommitTempSurvivesAConcurrentScan) {
  const TempDir dir{"live_temp"};
  const SnapshotStore store{dir.path()};
  std::string error;
  ASSERT_TRUE(store.ensure_dir(&error)) << error;

  // Simulate another process mid-commit: its temp exists and its flock is
  // held. (Same-process flock semantics: the lock lives on the open file
  // description, so a second open() in this process contends exactly like
  // another process would.)
  const std::string temp = store.path_for(9) + ".tmp.4242";
  { std::ofstream out{temp, std::ios::binary}; out << "in flight"; }
  const int owner = ::open(temp.c_str(), O_RDWR);
  ASSERT_GE(owner, 0);
  ASSERT_EQ(::flock(owner, LOCK_EX | LOCK_NB), 0);

  const auto scan = store.scan();
  ASSERT_TRUE(scan.readable) << scan.error;
  EXPECT_EQ(scan.stale_temps_removed, 0u);
  EXPECT_TRUE(fs::exists(temp)) << "scan swept a live commit's temp";

  // The owner dies (lock released): now it is crash residue and the next
  // scan sweeps it.
  ASSERT_EQ(::close(owner), 0);
  const auto second = store.scan();
  ASSERT_TRUE(second.readable) << second.error;
  EXPECT_EQ(second.stale_temps_removed, 1u);
  EXPECT_FALSE(fs::exists(temp));
}

TEST(StoreRace, OrphanedPidSuffixedTempIsSwept) {
  const TempDir dir{"orphan"};
  const SnapshotStore store{dir.path()};
  std::string error;
  ASSERT_TRUE(store.ensure_dir(&error)) << error;

  // Crash residue from two different dead writers, plus the legacy
  // suffix-less spelling — all unlocked, all swept.
  const std::string temps[] = {
      store.path_for(7) + ".tmp.11111",
      store.path_for(7) + ".tmp.22222",
      store.path_for(8) + ".tmp",
  };
  for (const auto& temp : temps) {
    std::ofstream out{temp, std::ios::binary};
    out << "dead";
  }

  const auto scan = store.scan();
  ASSERT_TRUE(scan.readable) << scan.error;
  EXPECT_EQ(scan.stale_temps_removed, 3u);
  for (const auto& temp : temps) EXPECT_FALSE(fs::exists(temp)) << temp;
}

TEST(StoreRace, ConcurrentDoubleCommitsConvergeToOneValidSnapshot) {
  const TempDir dir{"double_commit"};
  const SnapshotStore store{dir.path()};
  std::string error;
  ASSERT_TRUE(store.ensure_dir(&error)) << error;
  const auto image = test_image();

  // Two processes repeatedly commit byte-identical images of the same
  // weeks — the deterministic pipeline's double-compute case. Whatever
  // the interleaving, every rename installs a complete image.
  const auto statuses = core::ProcessPool::run(2, [&](int) -> int {
    std::string commit_error;
    for (int round = 0; round < 25; ++round) {
      for (int week = 1; week <= 4; ++week) {
        if (!commit_snapshot(store.path_for(week), image, &commit_error))
          return 1;
      }
    }
    return 0;
  });
  for (const auto& status : statuses)
    EXPECT_TRUE(status.ok()) << "worker " << status.worker;

  const auto scan = store.scan();
  ASSERT_TRUE(scan.readable) << scan.error;
  EXPECT_TRUE(scan.quarantined.empty());
  ASSERT_EQ(scan.weeks.size(), 4u);
  for (int week = 1; week <= 4; ++week) {
    SCOPED_TRACE("week " + std::to_string(week));
    const auto file = SnapshotFile::open(store.path_for(week));
    ASSERT_TRUE(file.ok()) << error_name(file.error());
    EXPECT_TRUE(std::equal(image.begin(), image.end(), file.bytes().begin(),
                           file.bytes().end()));
  }
}

TEST(StoreRace, CommitsRacingScansLeaveOnlyValidSnapshots) {
  const TempDir dir{"commit_vs_scan"};
  const SnapshotStore store{dir.path()};
  std::string error;
  ASSERT_TRUE(store.ensure_dir(&error)) << error;
  const auto image = test_image();

  // Worker 0 commits; worker 1 scans as fast as it can. The scanner must
  // never observe a torn committed file (atomic rename) and must never
  // sweep the live temp out from under the writer (flock ownership) — a
  // swept temp would surface as a failed commit.
  const auto statuses = core::ProcessPool::run(2, [&](int worker) -> int {
    if (worker == 0) {
      std::string commit_error;
      for (int round = 0; round < 40; ++round) {
        for (int week = 1; week <= 3; ++week) {
          if (!commit_snapshot(store.path_for(week), image, &commit_error))
            return 1;
        }
      }
      return 0;
    }
    for (int round = 0; round < 200; ++round) {
      const auto scan = store.scan();
      if (!scan.readable) return 1;
      if (!scan.quarantined.empty()) return 2;  // saw a torn snapshot
    }
    return 0;
  });
  for (const auto& status : statuses)
    EXPECT_TRUE(status.ok()) << "worker " << status.worker << " exit "
                             << status.exit_code;

  const auto scan = store.scan();
  ASSERT_TRUE(scan.readable) << scan.error;
  EXPECT_TRUE(scan.quarantined.empty());
  EXPECT_EQ(scan.weeks.size(), 3u);
}

// Regression: commit_snapshot creates its temp, then locks it. A scan that
// opens the temp in between can win the lock and sweep the file; the
// writer must then commit through a fresh temp rather than fail its
// rename. The window is replayed deterministically: the test plays that
// scan on a temp carrying this process's name (open, lock, unlink,
// close), holding the lock while the writer opens the same file, and
// sweeps once the writer is past its open — at the mid-write hook, or
// after a grace period when the writer waits for the lock instead.
TEST(StoreRace, ScanThatLocksTheTempBeforeTheWriterCannotFailTheCommit) {
  const TempDir dir{"sweep_before_lock"};
  const SnapshotStore store{dir.path()};
  std::string error;
  ASSERT_TRUE(store.ensure_dir(&error)) << error;
  const auto image = test_image();
  const std::string path = store.path_for(45);
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  { std::ofstream out{temp, std::ios::binary}; out << "unlocked"; }
  const int scanner_fd = ::open(temp.c_str(), O_RDONLY);
  ASSERT_GE(scanner_fd, 0);
  ASSERT_EQ(::flock(scanner_fd, LOCK_EX | LOCK_NB), 0);

  std::promise<void> writer_mid_write;
  std::promise<void> swept;
  std::shared_future<void> swept_done = swept.get_future().share();
  std::thread scanner{[&, reached = writer_mid_write.get_future()] {
    (void)reached.wait_for(std::chrono::milliseconds(500));
    ::unlink(temp.c_str());
    ::close(scanner_fd);
    swept.set_value();
  }};
  CommitHooks hooks;
  hooks.mid_temp_write = [&](const std::string&) {
    writer_mid_write.set_value();
    swept_done.wait();
  };
  const bool committed = commit_snapshot(path, image, &error, &hooks);
  scanner.join();
  EXPECT_TRUE(committed) << error;

  const auto scan = store.scan();
  ASSERT_TRUE(scan.readable) << scan.error;
  EXPECT_EQ(scan.weeks, std::vector<int>{45});
  EXPECT_TRUE(scan.quarantined.empty());
  EXPECT_EQ(scan.stale_temps_removed, 0u);
}

// Regression: two runners started on one fresh --dir both create it. The
// loser of that race used to fail: it saw the directory missing and then
// present ("exists and is not a directory"), or saw create_directories
// report that it created nothing ("cannot create <dir>: Success").
TEST(StoreRace, ProcessesCreatingTheStoreAtOnceAllSucceed) {
  const TempDir dir{"ensure_dir"};
  for (int round = 0; round < 20; ++round) {
    const std::string path = dir.path() + "/round_" + std::to_string(round);
    const auto statuses = core::ProcessPool::run(4, [&](int) -> int {
      std::string error;
      return SnapshotStore{path}.ensure_dir(&error) ? 0 : 1;
    });
    for (const auto& status : statuses)
      EXPECT_TRUE(status.ok()) << "round " << round << " worker "
                               << status.worker;
  }
}

TEST(StoreRace, ScannersRacingScannersSweepEachOrphanExactlyOnce) {
  const TempDir dir{"scan_vs_scan"};
  const SnapshotStore store{dir.path()};
  std::string error;
  ASSERT_TRUE(store.ensure_dir(&error)) << error;

  // A field of orphaned temps; two scanners race to sweep them. The
  // unlink-while-holding-the-lock protocol means no scanner ever fails on
  // the other's half-done work.
  for (int i = 0; i < 16; ++i) {
    std::ofstream out{store.path_for(i) + ".tmp." + std::to_string(10000 + i),
                      std::ios::binary};
    out << "dead";
  }
  const auto statuses = core::ProcessPool::run(2, [&](int) -> int {
    const auto scan = store.scan();
    return scan.readable ? 0 : 1;
  });
  for (const auto& status : statuses)
    EXPECT_TRUE(status.ok()) << "worker " << status.worker;

  // All residue gone, nothing quarantined, nothing invented.
  const auto final_scan = store.scan();
  ASSERT_TRUE(final_scan.readable) << final_scan.error;
  EXPECT_EQ(final_scan.stale_temps_removed, 0u);
  EXPECT_TRUE(final_scan.weeks.empty());
  EXPECT_TRUE(final_scan.quarantined.empty());
  for (const auto& entry : fs::directory_iterator(dir.path()))
    ADD_FAILURE() << "unexpected residue: " << entry.path();
}

}  // namespace
}  // namespace ixp::store
