// SnapshotStore — the crash-consistent on-disk home of a finished week.
//
// One snapshot file holds what every reader of a completed week needs:
// the final WeeklyReport (so resume, the §4 fold and merge never re-run
// the week) and the provenance record that says what the report is a
// pure function of. The format is versioned, checksummed, and sealed:
//
//   header  (24 B)  magic "IXPSNAP\0" + u32 format version
//                   + u32 section count + u64 payload bytes
//   section (16 B + payload) x N
//                   u32 section id + u32 CRC-32C(id, length, payload)
//                   + u64 length
//   footer  (24 B)  magic "IXPSEAL\0" + u32 format version
//                   + u32 CRC-32C(header) + u64 total file bytes
//
// All integers little-endian. The footer is what makes torn writes
// detectable without trusting anything that came before it: a file that
// does not end in a seal naming its own exact size is not a snapshot.
// Each section CRC covers the section's own id and length fields as well
// as every payload byte, and the header CRC covers the file header, so a
// single flipped bit anywhere outside a CRC word fails validation (and a
// flip inside a CRC word fails it too, by mismatching an intact input).
//
// Commit is the classic crash-consistent dance (DESIGN.md §13): write
// `<path>.tmp.<pid>`, fsync it, rename() over the destination, fsync the
// directory. A crash at any point leaves either the old file, no file,
// or a temp that open() never considers — never a half-written snapshot
// under the committed name. The writer holds an flock on the temp for
// the duration of the write, which is what makes the store safe to share
// between concurrent `weeks` processes (DESIGN.md §16): a scanner sweeps
// only temps whose lock it can take (the owner died), never a live
// commit's, and double-commits of the same week converge because the
// pipeline is deterministic — both renames install byte-identical
// images. Files that fail validation are quarantined (renamed aside with
// the error class in the name) rather than deleted, so an operator can
// inspect what the fault matrix chewed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ixp::store {

inline constexpr char kSnapshotMagic[8] = {'I', 'X', 'P', 'S', 'N', 'A', 'P', '\0'};
inline constexpr char kFooterMagic[8] = {'I', 'X', 'P', 'S', 'E', 'A', 'L', '\0'};
// v2: ProbeFunnel gained early_exits (PR 9). v3: snapshots carry a
// provenance section (model/ingest fingerprints, partial-shard flag —
// DESIGN.md §16).
// v4: a report's LocalityTally holds two u64 counts (prefixes, ASes), not
// sorted element lists (DESIGN.md §16.3).
// v5: snapshots hold only the report and provenance sections; the shard
// section and the provenance's partial-shard byte are gone (DESIGN.md §16).
// Files of another version fail validation as kBadVersion and take the
// quarantine-and-recompute path by design.
inline constexpr std::uint32_t kFormatVersion = 5;
inline constexpr std::size_t kSnapshotHeaderBytes = 24;
inline constexpr std::size_t kSnapshotFooterBytes = 24;
inline constexpr std::size_t kSectionHeaderBytes = 16;

/// Section ids (u32, format-stable). WeeksRunner writes the report and
/// provenance sections; id 1 (SnapshotCodec::encode_shard) is written and
/// read by no shipped code since v5.
inline constexpr std::uint32_t kShardSection = 1;
inline constexpr std::uint32_t kReportSection = 2;
inline constexpr std::uint32_t kProvenanceSection = 3;

/// Why a snapshot failed to open — the distinct taxonomy the quarantine
/// path and the CLI report (mirrors sflow::MappedTrace::Error in spirit).
enum class SnapshotError : std::uint8_t {
  kNone,              ///< opened and fully validated
  kOpenFailed,        ///< the file could not be opened or stat'ed
  kTooShort,          ///< smaller than header + footer
  kBadMagic,          ///< header magic mismatch
  kBadVersion,        ///< header format version mismatch
  kBadCrc,            ///< a section payload or the header failed its CRC
  kTruncatedSection,  ///< framing does not tile the file (torn/duplicated
                      ///< tail, section running past the seal, missing seal)
  kStaleProvenance,   ///< intact file, but its provenance no longer matches
                      ///< what the run would compute (model/policy changed);
                      ///< never produced by validate_image — the runner
                      ///< classifies it after decoding the provenance section
};

/// Human-readable name for CLI diagnostics and quarantine suffixes.
[[nodiscard]] const char* error_name(SnapshotError error) noexcept;
/// Short kebab-case tag used in quarantine file names ("bad-crc").
[[nodiscard]] const char* error_tag(SnapshotError error) noexcept;

/// One section to be written.
struct Section {
  std::uint32_t id = 0;
  std::span<const std::byte> payload;
};

/// One validated section inside an open snapshot image.
struct SectionView {
  std::uint32_t id = 0;
  std::size_t offset = 0;  ///< payload offset within the file image
  std::size_t length = 0;
};

/// Builds a complete sealed snapshot image (header + sections + footer).
[[nodiscard]] std::vector<std::byte> encode_snapshot(
    std::span<const Section> sections);

/// Validates a snapshot image; fills `sections_out` (when non-null) with
/// the section table on success. Returns kNone when the image is intact.
[[nodiscard]] SnapshotError validate_image(
    std::span<const std::byte> image,
    std::vector<SectionView>* sections_out = nullptr);

/// What a snapshot file was when it was opened: device, inode, size and
/// modification and change times. A file that still carries the stamp it
/// had when it was validated has not been renamed over or resized since,
/// nor rewritten in place (to the file system's timestamp granularity),
/// so its bytes need no second CRC pass.
struct FileStamp {
  std::uint64_t device = 0;
  std::uint64_t inode = 0;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
  std::int64_t ctime_ns = 0;

  bool operator==(const FileStamp&) const = default;
};

/// Crash-point instrumentation for commit(): each hook runs at the named
/// point of the commit protocol and may throw (StoreFaultInjector throws
/// InjectedCrash) to simulate the process dying right there. Production
/// callers pass nullptr.
struct CommitHooks {
  /// After roughly half the temp file's bytes are written (torn temp).
  std::function<void(const std::string& temp_path)> mid_temp_write;
  /// Temp file fully written, not yet fsync'ed.
  std::function<void(const std::string& temp_path)> after_temp_write;
  /// Temp file fsync'ed, not yet renamed.
  std::function<void(const std::string& temp_path)> after_temp_sync;
  /// rename() done, directory not yet fsync'ed.
  std::function<void(const std::string& path)> after_rename;
};

/// Crash-consistently writes `image` to `path` (temp + fsync + rename +
/// directory fsync). On failure returns false with a diagnostic in
/// `*error`; the destination is never left half-written. Hook exceptions
/// propagate (the simulated crash) after closing the temp descriptor.
[[nodiscard]] bool commit_snapshot(const std::string& path,
                                   std::span<const std::byte> image,
                                   std::string* error,
                                   const CommitHooks* hooks = nullptr);

/// A read-only validated snapshot file: mmap'ed on POSIX hosts, read into
/// an owned buffer elsewhere (the MappedTrace pattern). Move-only.
class SnapshotFile {
 public:
  SnapshotFile() = default;
  ~SnapshotFile();

  SnapshotFile(SnapshotFile&& other) noexcept;
  SnapshotFile& operator=(SnapshotFile&& other) noexcept;
  SnapshotFile(const SnapshotFile&) = delete;
  SnapshotFile& operator=(const SnapshotFile&) = delete;

  /// Maps (or reads) and fully validates the snapshot at `path`.
  [[nodiscard]] static SnapshotFile open(const std::string& path);

  /// Re-points this handle at `path`, releasing the previous image and
  /// revalidating in place. Equivalent to `*this = open(path)` but reuses
  /// the section-table (and, on the non-mmap path, the read-buffer)
  /// capacity across opens — the decode-side half of the store bench's
  /// allocation budget. When `validated` is the stamp of an earlier open
  /// that validated this file and the mapped file still carries it, only
  /// the framing is walked: its CRCs were checked then. Returns ok().
  bool reopen(const std::string& path,
              const FileStamp* validated = nullptr);

  /// Wraps an in-memory image (tests, benchmarks); validates identically.
  [[nodiscard]] static SnapshotFile adopt(std::vector<std::byte> bytes);

  [[nodiscard]] bool ok() const noexcept {
    return error_ == SnapshotError::kNone;
  }
  [[nodiscard]] SnapshotError error() const noexcept { return error_; }

  /// Payload of the first section with `id`; empty when absent.
  [[nodiscard]] std::span<const std::byte> section(std::uint32_t id) const noexcept;

  [[nodiscard]] const std::vector<SectionView>& sections() const noexcept {
    return sections_;
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_, size_};
  }
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_; }

  /// The mapped file's stamp; all zero for an adopted or read image.
  [[nodiscard]] const FileStamp& stamp() const noexcept { return stamp_; }

 private:
  void release() noexcept;
  void validate(bool checksums = true) noexcept;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::byte> owned_;
  std::vector<SectionView> sections_;
  FileStamp stamp_;
  SnapshotError error_ = SnapshotError::kOpenFailed;
};

/// One corrupt file moved aside during load()/scan().
struct QuarantineEvent {
  std::string file;            ///< original path
  std::string quarantined_as;  ///< where it was moved (empty if move failed)
  SnapshotError error = SnapshotError::kNone;
};

/// A directory of per-week snapshots (`week_<NNNN>.snap`). The store owns
/// naming, atomic commit, validation-with-quarantine on load, and the
/// resume scan. It never deletes data: corrupt files are renamed aside,
/// stale temp files (a crash between write and rename) are removed on
/// scan — they were never committed, so nothing durable is lost.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Creates the directory if needed. False (with diagnostic) when the
  /// path exists but is not a directory, or creation fails.
  [[nodiscard]] bool ensure_dir(std::string* error) const;

  [[nodiscard]] std::string path_for(int week) const;

  /// Atomically commits one week's sections.
  [[nodiscard]] bool save(int week, std::span<const Section> sections,
                          std::string* error,
                          const CommitHooks* hooks = nullptr) const;

  /// Opens and validates week's snapshot. On any validation failure the
  /// file is quarantined and the event reported through `quarantined`;
  /// the returned file then carries the error. A missing file is plain
  /// kOpenFailed with no quarantine. `validated` is the stamp scan()
  /// recorded for the week: a file that still carries it skips the CRC
  /// pass (SnapshotFile::reopen).
  [[nodiscard]] SnapshotFile load(
      int week, std::optional<QuarantineEvent>* quarantined = nullptr,
      const FileStamp* validated = nullptr) const;

  struct ScanResult {
    bool readable = true;    ///< false: the directory itself is unreadable
    std::string error;       ///< diagnostic when !readable
    std::vector<int> weeks;  ///< weeks with a valid snapshot, ascending
    std::vector<FileStamp> stamps;  ///< by weeks: each file as validated
    std::vector<QuarantineEvent> quarantined;
    std::size_t stale_temps_removed = 0;
  };

  /// Walks the directory: validates every snapshot at the name path_for()
  /// gives its week (quarantining the corrupt ones; any other name is
  /// skipped, never checksummed), removes stale `.tmp` leftovers that no
  /// live commit still owns (ownership = an flock held for the duration
  /// of the write — a racing process's in-flight temp is left alone), and
  /// returns the weeks that are durably on disk.
  [[nodiscard]] ScanResult scan() const;

  /// Moves a snapshot aside with the error class in the name; returns the
  /// event (quarantined_as empty when the rename itself failed). The
  /// runner calls this directly for kStaleProvenance — a file validate()
  /// accepts but whose recorded inputs no longer match the run's.
  [[nodiscard]] QuarantineEvent quarantine(const std::string& path,
                                           SnapshotError error) const;

 private:
  std::string dir_;
};

}  // namespace ixp::store
