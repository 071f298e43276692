// The snapshot container contract (DESIGN.md §13): a sealed image
// round-trips through validation; every storage-rot fault class is
// caught at open with the right SnapshotError (never a crash, never a
// silently wrong payload); commit is crash-consistent at every injected
// crash point; and the store's load/scan path quarantines corruption
// instead of deleting or trusting it.
#include "store/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "store/crc32c.hpp"
#include "support/store_fault.hpp"
#include "util/rng.hpp"

namespace ixp::store {
namespace {

namespace fs = std::filesystem;

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

/// A small two-section image with asymmetric payloads — enough structure
/// for every fault class to have somewhere interesting to land.
std::vector<std::byte> test_image() {
  const auto shard = bytes_of("shard-payload: the mergeable half");
  const auto report = bytes_of("report-payload");
  const Section sections[] = {
      {kShardSection, shard},
      {kReportSection, report},
  };
  return encode_snapshot(sections);
}

/// A scratch directory per test, cleaned on both ends.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(testing::TempDir() + "ixpscope_store_" + tag + "_" +
              std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
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

TEST(SnapshotImage, SealedImageValidatesAndExposesSections) {
  const auto image = test_image();
  ASSERT_GE(image.size(), kSnapshotHeaderBytes + kSnapshotFooterBytes);

  std::vector<SectionView> sections;
  EXPECT_EQ(validate_image(image, &sections), SnapshotError::kNone);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].id, kShardSection);
  EXPECT_EQ(sections[1].id, kReportSection);

  const SnapshotFile file = SnapshotFile::adopt(std::vector<std::byte>{image});
  ASSERT_TRUE(file.ok());
  const auto shard = file.section(kShardSection);
  const auto expected = bytes_of("shard-payload: the mergeable half");
  ASSERT_EQ(shard.size(), expected.size());
  EXPECT_TRUE(std::equal(shard.begin(), shard.end(), expected.begin()));
  EXPECT_TRUE(file.section(999).empty());
}

TEST(SnapshotImage, EmptySectionListAndEmptyPayloadsAreValid) {
  const auto empty = encode_snapshot({});
  EXPECT_EQ(empty.size(), kSnapshotHeaderBytes + kSnapshotFooterBytes);
  EXPECT_EQ(validate_image(empty), SnapshotError::kNone);

  const Section sections[] = {{kShardSection, {}}};
  const auto image = encode_snapshot(sections);
  std::vector<SectionView> views;
  EXPECT_EQ(validate_image(image, &views), SnapshotError::kNone);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].length, 0u);
}

TEST(SnapshotImage, EncodingIsDeterministic) {
  EXPECT_EQ(test_image(), test_image());
}

TEST(SnapshotImage, HandRolledDamageMapsToDistinctErrors) {
  const auto image = test_image();

  {  // Too short: any prefix smaller than header + footer.
    std::vector<std::byte> cut(image.begin(), image.begin() + 10);
    EXPECT_EQ(validate_image(cut), SnapshotError::kTooShort);
  }
  {  // Header magic.
    auto bad = image;
    bad[0] = std::byte{'X'};
    EXPECT_EQ(validate_image(bad), SnapshotError::kBadMagic);
  }
  {  // Header version.
    auto bad = image;
    bad[8] = std::byte{0xEE};
    EXPECT_EQ(validate_image(bad), SnapshotError::kBadVersion);
  }
  {  // Payload bit flip under a section CRC.
    auto bad = image;
    bad[kSnapshotHeaderBytes + kSectionHeaderBytes] ^= std::byte{0x01};
    EXPECT_EQ(validate_image(bad), SnapshotError::kBadCrc);
  }
  {  // Lost tail: the file no longer ends in a seal naming its own size.
    auto bad = image;
    bad.resize(bad.size() - 1);
    EXPECT_EQ(validate_image(bad), SnapshotError::kTruncatedSection);
  }
  {  // Appended garbage is just as torn as a lost tail.
    auto bad = image;
    bad.push_back(std::byte{0});
    EXPECT_EQ(validate_image(bad), SnapshotError::kTruncatedSection);
  }
}

TEST(SnapshotImage, ErrorNamesAndTagsAreDistinct) {
  const SnapshotError all[] = {
      SnapshotError::kNone,       SnapshotError::kOpenFailed,
      SnapshotError::kTooShort,   SnapshotError::kBadMagic,
      SnapshotError::kBadVersion, SnapshotError::kBadCrc,
      SnapshotError::kTruncatedSection,
      SnapshotError::kStaleProvenance,
  };
  std::vector<std::string> names;
  std::vector<std::string> tags;
  for (const auto error : all) {
    names.emplace_back(error_name(error));
    tags.emplace_back(error_tag(error));
  }
  std::sort(names.begin(), names.end());
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_EQ(std::adjacent_find(tags.begin(), tags.end()), tags.end());
}

/// Every storage-rot fault class, several seeds each: validation must
/// reject the damaged image with an error from the class's expected set —
/// and never kNone, never a crash.
TEST(StorageFaultMatrix, EveryFaultClassIsCaughtWithTheRightError) {
  const auto pristine = test_image();
  for (const StorageFault fault : kAllStorageFaults) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      SCOPED_TRACE(std::string{storage_fault_name(fault)} + " seed " +
                   std::to_string(seed));
      StoreFaultInjector injector{seed};
      auto image = pristine;
      injector.apply(fault, image);
      ASSERT_NE(image, pristine) << "fault was a no-op";

      const SnapshotError error = validate_image(image);
      EXPECT_NE(error, SnapshotError::kNone);
      switch (fault) {
        case StorageFault::kTornTail:
        case StorageFault::kDuplicatedFooter:
          EXPECT_EQ(error, SnapshotError::kTruncatedSection);
          break;
        case StorageFault::kMidTruncation:
          EXPECT_TRUE(error == SnapshotError::kTooShort ||
                      error == SnapshotError::kTruncatedSection)
              << error_name(error);
          break;
        case StorageFault::kHeaderBitFlip:
          EXPECT_TRUE(error == SnapshotError::kBadMagic ||
                      error == SnapshotError::kBadVersion ||
                      error == SnapshotError::kBadCrc ||
                      error == SnapshotError::kTruncatedSection)
              << error_name(error);
          break;
        case StorageFault::kSectionBitFlip:
          EXPECT_TRUE(error == SnapshotError::kBadCrc ||
                      error == SnapshotError::kTruncatedSection)
              << error_name(error);
          break;
        case StorageFault::kCrcFieldBitFlip:
          EXPECT_EQ(error, SnapshotError::kBadCrc);
          break;
      }
    }
  }
}

TEST(Crc32c, MatchesKnownVectorAndIsIncremental) {
  // RFC 3720 test vector: crc32c of 32 zero bytes.
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // The CRC-32C check value: crc32c("123456789").
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  // Incremental == one-shot.
  const auto data = bytes_of("incremental checksum check");
  const auto whole = crc32c(data);
  const auto split = crc32c(std::span{data}.subspan(7),
                            crc32c(std::span{data}.first(7)));
  EXPECT_EQ(whole, split);
}

// The SSE4.2 path of crc32c() against the slicing-by-eight table walk.
// On a CPU without SSE4.2 crc32c() is the table walk itself, so each case
// still runs the table path and only the comparison is skipped.
std::vector<std::byte> pseudo_random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() >> 56);
  return out;
}

void expect_paths_agree(std::span<const std::byte> data, std::uint32_t crc) {
  const std::uint32_t table = crc32c_table(data, crc);
  if (crc32c_hardware()) {
    EXPECT_EQ(crc32c(data, crc), table);
  }
}

TEST(Crc32cDifferential, EveryLengthToOneKibAtEveryAlignment) {
  const auto data = pseudo_random_bytes(1024 + 8, 0xc32cd1ffu);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(length));
      const auto piece = std::span{data}.subspan(offset, length);
      expect_paths_agree(piece, 0);
      expect_paths_agree(piece, 0x9e3779b9u);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(Crc32cDifferential, EverySplitPointContinuesTheChecksum) {
  const auto data = pseudo_random_bytes(64, 0x5eed64u);
  const std::uint32_t whole = crc32c_table(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    SCOPED_TRACE("split " + std::to_string(split));
    const auto head = std::span{data}.first(split);
    const auto tail = std::span{data}.subspan(split);
    EXPECT_EQ(crc32c_table(tail, crc32c_table(head)), whole);
    expect_paths_agree(head, 0);
    expect_paths_agree(tail, crc32c_table(head));
    EXPECT_EQ(crc32c(tail, crc32c(head)), whole);
  }
}

TEST(Crc32cDifferential, KnownVectorsOnBothPaths) {
  // RFC 3720 B.4: 32 bytes of zeros, of ones, ascending and descending.
  std::vector<std::byte> zeros(32, std::byte{0});
  std::vector<std::byte> ones(32, std::byte{0xff});
  std::vector<std::byte> ascending(32);
  std::vector<std::byte> descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::byte>(i);
    descending[i] = static_cast<std::byte>(31 - i);
  }
  const std::pair<const std::vector<std::byte>*, std::uint32_t> vectors[] = {
      {&zeros, 0x8A9136AAu},
      {&ones, 0x62A8AB43u},
      {&ascending, 0x46DD794Eu},
      {&descending, 0x113FDB5Cu},
  };
  for (const auto& [bytes, expected] : vectors) {
    EXPECT_EQ(crc32c_table(*bytes), expected);
    EXPECT_EQ(crc32c(*bytes), expected);
  }
  EXPECT_EQ(crc32c_table(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
}

TEST(Crc32cDifferential, WholeSnapshotImage) {
  const auto shard = pseudo_random_bytes(300 * 1024 + 5, 0x5a4d);
  const auto report = pseudo_random_bytes(70 * 1024 + 3, 0x4e70);
  const Section sections[] = {
      {kShardSection, shard},
      {kReportSection, report},
  };
  const auto image = encode_snapshot(sections);
  ASSERT_EQ(validate_image(image), SnapshotError::kNone);
  expect_paths_agree(image, 0);
}

TEST(CommitSnapshot, RoundTripsThroughOpen) {
  const TempDir dir{"commit"};
  const std::string path = dir.path() + "/week_0001.snap";
  const auto image = test_image();
  std::string error;
  ASSERT_TRUE(commit_snapshot(path, image, &error)) << error;
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  const SnapshotFile file = SnapshotFile::open(path);
  ASSERT_TRUE(file.ok()) << error_name(file.error());
  ASSERT_EQ(file.bytes().size(), image.size());
  EXPECT_TRUE(std::equal(file.bytes().begin(), file.bytes().end(),
                         image.begin()));
}

TEST(CommitSnapshot, MissingFileIsOpenFailedNotACrash) {
  const TempDir dir{"missing"};
  const SnapshotFile file = SnapshotFile::open(dir.path() + "/absent.snap");
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.error(), SnapshotError::kOpenFailed);
}

/// The crash matrix: at every injected crash point the destination is
/// either absent, the old committed image, or the complete new one —
/// never a torn file under the committed name.
TEST(CommitSnapshot, EveryCrashPointLeavesDestinationCleanOrCommitted) {
  const auto image = test_image();
  for (const CrashPoint point : kAllCrashPoints) {
    SCOPED_TRACE(crash_point_name(point));
    const TempDir dir{std::string{"crash_"} + crash_point_name(point)};
    const std::string path = dir.path() + "/week_0001.snap";
    const CommitHooks hooks = StoreFaultInjector::crash_at(point);

    std::string error;
    EXPECT_THROW((void)commit_snapshot(path, image, &error, &hooks),
                 InjectedCrash);

    if (point == CrashPoint::kAfterRename) {
      // The rename happened before the "kill": the snapshot is durable.
      const SnapshotFile file = SnapshotFile::open(path);
      EXPECT_TRUE(file.ok()) << error_name(file.error());
    } else {
      // Died before rename: the committed name must not exist; at most a
      // temp file (possibly torn) is left for scan() to sweep.
      EXPECT_FALSE(fs::exists(path));
    }

    // Recovery: a scan sweeps any leftover temp, and a clean re-commit
    // lands the snapshot regardless of what the crash left behind.
    const SnapshotStore store{dir.path()};
    const auto scan = store.scan();
    ASSERT_TRUE(scan.readable) << scan.error;
    EXPECT_TRUE(scan.quarantined.empty());
    ASSERT_TRUE(commit_snapshot(path, image, &error)) << error;
    EXPECT_TRUE(SnapshotFile::open(path).ok());
    EXPECT_FALSE(fs::exists(path + ".tmp"));
  }
}

TEST(CommitSnapshot, OverwritingAnExistingSnapshotIsAtomic) {
  const TempDir dir{"overwrite"};
  const std::string path = dir.path() + "/week_0002.snap";
  const auto old_image = test_image();
  std::string error;
  ASSERT_TRUE(commit_snapshot(path, old_image, &error)) << error;

  // Die mid-temp-write while replacing: the old snapshot must survive.
  const auto new_payload = bytes_of("a different, longer shard payload .....");
  const Section sections[] = {{kShardSection, new_payload}};
  const auto new_image = encode_snapshot(sections);
  const CommitHooks hooks =
      StoreFaultInjector::crash_at(CrashPoint::kMidTempWrite);
  EXPECT_THROW((void)commit_snapshot(path, new_image, &error, &hooks),
               InjectedCrash);
  const auto on_disk = read_file(path);
  EXPECT_EQ(on_disk, old_image);
}

TEST(SnapshotStore, SaveLoadScanAndQuarantine) {
  const TempDir dir{"store"};
  const SnapshotStore store{dir.path()};
  std::string error;
  ASSERT_TRUE(store.ensure_dir(&error)) << error;

  const auto shard = bytes_of("shard");
  const auto report = bytes_of("report");
  const Section sections[] = {
      {kShardSection, shard},
      {kReportSection, report},
  };
  ASSERT_TRUE(store.save(3, sections, &error)) << error;
  ASSERT_TRUE(store.save(5, sections, &error)) << error;

  // Plant a stale temp — the residue of a crash between write and rename.
  write_file(store.path_for(9) + ".tmp", bytes_of("torn"));

  auto scan = store.scan();
  ASSERT_TRUE(scan.readable) << scan.error;
  EXPECT_EQ(scan.weeks, (std::vector<int>{3, 5}));
  EXPECT_EQ(scan.stale_temps_removed, 1u);
  EXPECT_FALSE(fs::exists(store.path_for(9) + ".tmp"));

  // Rot week 3 on disk: load() must quarantine, not trust or delete.
  auto rotten = read_file(store.path_for(3));
  rotten[kSnapshotHeaderBytes + kSectionHeaderBytes] ^= std::byte{0x10};
  write_file(store.path_for(3), rotten);

  std::optional<QuarantineEvent> event;
  const SnapshotFile file = store.load(3, &event);
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.error(), SnapshotError::kBadCrc);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->error, SnapshotError::kBadCrc);
  EXPECT_EQ(event->file, store.path_for(3));
  ASSERT_FALSE(event->quarantined_as.empty());
  EXPECT_TRUE(fs::exists(event->quarantined_as));
  EXPECT_NE(event->quarantined_as.find("bad-crc"), std::string::npos);
  EXPECT_FALSE(fs::exists(store.path_for(3)));  // moved aside, not in place

  // The quarantined file holds the rotten bytes, intact for forensics.
  EXPECT_EQ(read_file(event->quarantined_as), rotten);

  scan = store.scan();
  ASSERT_TRUE(scan.readable);
  EXPECT_EQ(scan.weeks, (std::vector<int>{5}));  // week 3 is gone from scan
  const SnapshotFile five = store.load(5);
  EXPECT_TRUE(five.ok());
}

TEST(SnapshotStore, LoadSkipsTheCrcOnlyForTheFileScanValidated) {
  const TempDir dir{"stamp"};
  const SnapshotStore store{dir.path()};
  const auto image = test_image();
  std::string error;
  ASSERT_TRUE(commit_snapshot(store.path_for(4), image, &error)) << error;
  std::uint64_t before = crc32c_bytes();
  ASSERT_EQ(validate_image(image), SnapshotError::kNone);
  const std::uint64_t once = crc32c_bytes() - before;
  ASSERT_GT(once, image.size() / 2);

  const auto scan = store.scan();
  ASSERT_EQ(scan.weeks, (std::vector<int>{4}));
  ASSERT_EQ(scan.stamps.size(), 1u);
  const FileStamp stamp = scan.stamps[0];
  EXPECT_EQ(stamp.size, image.size());
  std::vector<SectionView> sections;
  ASSERT_EQ(validate_image(image, &sections), SnapshotError::kNone);

  {
    // The file the scan validated: its framing is walked, no CRC runs.
    before = crc32c_bytes();
    const SnapshotFile trusted = store.load(4, nullptr, &stamp);
    EXPECT_EQ(crc32c_bytes() - before, 0u);
    ASSERT_TRUE(trusted.ok());
    EXPECT_EQ(trusted.stamp(), stamp);
    ASSERT_EQ(trusted.sections().size(), sections.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
      EXPECT_EQ(trusted.sections()[i].id, sections[i].id);
      EXPECT_EQ(trusted.sections()[i].offset, sections[i].offset);
      EXPECT_EQ(trusted.sections()[i].length, sections[i].length);
    }
  }
  for (const bool with_stamp : {true, false}) {
    // Another stamp, or none: one full pass.
    FileStamp other = stamp;
    other.ctime_ns += 1;
    before = crc32c_bytes();
    EXPECT_TRUE(store.load(4, nullptr, with_stamp ? &other : nullptr).ok());
    EXPECT_EQ(crc32c_bytes() - before, once) << with_stamp;
  }

  // A rotten file renamed over the validated one is another inode: the
  // CRC pass runs, catches the rot and quarantines the file.
  auto rotten = image;
  rotten[kSnapshotHeaderBytes + kSectionHeaderBytes] ^= std::byte{0x10};
  write_file(store.path_for(4) + ".new", rotten);
  fs::rename(store.path_for(4) + ".new", store.path_for(4));
  std::optional<QuarantineEvent> event;
  const SnapshotFile swapped = store.load(4, &event, &stamp);
  EXPECT_EQ(swapped.error(), SnapshotError::kBadCrc);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->error, SnapshotError::kBadCrc);
  EXPECT_FALSE(fs::exists(store.path_for(4)));
}

TEST(SnapshotStore, ScanQuarantinesEveryFaultClassCleanly) {
  const auto pristine = test_image();
  for (const StorageFault fault : kAllStorageFaults) {
    SCOPED_TRACE(storage_fault_name(fault));
    const TempDir dir{std::string{"scanrot_"} + storage_fault_name(fault)};
    const SnapshotStore store{dir.path()};

    StoreFaultInjector injector{7};
    auto image = pristine;
    injector.apply(fault, image);
    write_file(store.path_for(4), image);

    const auto scan = store.scan();
    ASSERT_TRUE(scan.readable) << scan.error;
    EXPECT_TRUE(scan.weeks.empty());
    ASSERT_EQ(scan.quarantined.size(), 1u);
    EXPECT_NE(scan.quarantined[0].error, SnapshotError::kNone);
    EXPECT_TRUE(fs::exists(scan.quarantined[0].quarantined_as));
  }
}

TEST(SnapshotStore, EnsureDirRefusesARegularFile) {
  const TempDir dir{"notadir"};
  const std::string file_path = dir.path() + "/occupied";
  write_file(file_path, bytes_of("x"));
  const SnapshotStore store{file_path};
  std::string error;
  EXPECT_FALSE(store.ensure_dir(&error));
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotStore, PathForZeroPadsWeeks) {
  const SnapshotStore store{"/tmp/s"};
  EXPECT_EQ(store.path_for(3), "/tmp/s/week_0003.snap");
  EXPECT_EQ(store.path_for(1234), "/tmp/s/week_1234.snap");
}

}  // namespace
}  // namespace ixp::store
