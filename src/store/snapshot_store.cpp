#include "store/snapshot_store.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "store/crc32c.hpp"
#include "store/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define IXPSCOPE_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define IXPSCOPE_HAVE_POSIX_IO 0
#endif

namespace ixp::store {

namespace {

std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[0])) |
         (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[1])) << 8) |
         (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[2])) << 16) |
         (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[3])) << 24);
}

std::uint64_t load_le64(const std::byte* p) noexcept {
  return static_cast<std::uint64_t>(load_le32(p)) |
         (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

void store_le32(std::byte* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

void store_le64(std::byte* p, std::uint64_t v) noexcept {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

#if IXPSCOPE_HAVE_POSIX_IO
/// True when `path` still names the file open on `fd`: a temp swept (or
/// swept and recreated) after `fd` was opened fails the check.
bool names_open_file(const std::string& path, int fd) noexcept {
  struct stat at_path {};
  struct stat opened {};
  return ::stat(path.c_str(), &at_path) == 0 && ::fstat(fd, &opened) == 0 &&
         at_path.st_dev == opened.st_dev && at_path.st_ino == opened.st_ino;
}

/// The stamp of an fstat'ed file.
FileStamp stamp_of(const struct stat& st) noexcept {
#if defined(__APPLE__)
  const struct timespec& mtime = st.st_mtimespec;
  const struct timespec& ctime = st.st_ctimespec;
#else
  const struct timespec& mtime = st.st_mtim;
  const struct timespec& ctime = st.st_ctim;
#endif
  const auto ns = [](const struct timespec& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
  };
  return {static_cast<std::uint64_t>(st.st_dev),
          static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::uint64_t>(st.st_size), ns(mtime), ns(ctime)};
}
#endif

/// Per-section checksum. Covers the section's own id and length fields
/// as well as the payload — a flipped bit anywhere in the 16-byte section
/// record (outside the CRC word itself) must fail verification, not just
/// flips inside the payload.
std::uint32_t section_crc(std::uint32_t id, std::uint64_t length,
                          std::span<const std::byte> payload) noexcept {
  std::byte prefix[12];
  for (int i = 0; i < 4; ++i)
    prefix[i] = static_cast<std::byte>((id >> (8 * i)) & 0xFF);
  for (int i = 0; i < 8; ++i)
    prefix[4 + i] = static_cast<std::byte>((length >> (8 * i)) & 0xFF);
  return crc32c(payload, crc32c(std::span<const std::byte>{prefix, 12}));
}

}  // namespace

const char* error_name(SnapshotError error) noexcept {
  switch (error) {
    case SnapshotError::kNone: return "ok";
    case SnapshotError::kOpenFailed: return "cannot open snapshot file";
    case SnapshotError::kTooShort:
      return "snapshot shorter than header + footer";
    case SnapshotError::kBadMagic: return "not an ixpscope snapshot (bad magic)";
    case SnapshotError::kBadVersion: return "unsupported snapshot format version";
    case SnapshotError::kBadCrc: return "snapshot checksum mismatch";
    case SnapshotError::kTruncatedSection:
      return "snapshot framing torn (truncated or trailing bytes)";
    case SnapshotError::kStaleProvenance:
      return "snapshot provenance does not match this run's inputs";
  }
  return "unknown error";
}

const char* error_tag(SnapshotError error) noexcept {
  switch (error) {
    case SnapshotError::kNone: return "ok";
    case SnapshotError::kOpenFailed: return "open-failed";
    case SnapshotError::kTooShort: return "short";
    case SnapshotError::kBadMagic: return "bad-magic";
    case SnapshotError::kBadVersion: return "bad-version";
    case SnapshotError::kBadCrc: return "bad-crc";
    case SnapshotError::kTruncatedSection: return "truncated-section";
    case SnapshotError::kStaleProvenance: return "stale-provenance";
  }
  return "unknown";
}

std::vector<std::byte> encode_snapshot(std::span<const Section> sections) {
  std::uint64_t payload_bytes = 0;
  for (const Section& s : sections)
    payload_bytes += kSectionHeaderBytes + s.payload.size();
  const std::size_t total =
      kSnapshotHeaderBytes + payload_bytes + kSnapshotFooterBytes;

  // Every header field is known before a byte is written, so the header
  // CRC the footer seals can be computed up front from a stack copy and
  // the whole image laid down in one exactly-sized buffer — encoding a
  // snapshot is a single allocation regardless of section count or size.
  std::byte head[kSnapshotHeaderBytes];
  std::memcpy(head, kSnapshotMagic, sizeof kSnapshotMagic);
  store_le32(head + 8, kFormatVersion);
  store_le32(head + 12, static_cast<std::uint32_t>(sections.size()));
  store_le64(head + 16, payload_bytes);
  const std::uint32_t header_crc =
      crc32c(std::span<const std::byte>{head, kSnapshotHeaderBytes});

  wire::Writer out;
  out.reserve(total);
  out.bytes(std::span<const std::byte>{head, kSnapshotHeaderBytes});

  for (const Section& s : sections) {
    out.u32(s.id);
    out.u32(section_crc(s.id, s.payload.size(), s.payload));
    out.u64(s.payload.size());
    out.bytes(s.payload);
  }

  out.bytes(std::as_bytes(std::span<const char>{kFooterMagic}));
  out.u32(kFormatVersion);
  out.u32(header_crc);
  out.u64(total);
  return out.take();
}

namespace {

/// validate_image with the CRCs optional: without them only the magic,
/// version, seal and section framing are checked.
SnapshotError check_image(std::span<const std::byte> image,
                          std::vector<SectionView>* sections_out,
                          bool checksums) {
  if (image.size() < kSnapshotHeaderBytes + kSnapshotFooterBytes)
    return SnapshotError::kTooShort;
  if (std::memcmp(image.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0)
    return SnapshotError::kBadMagic;
  if (load_le32(image.data() + 8) != kFormatVersion)
    return SnapshotError::kBadVersion;

  // The seal first: a file that does not end in a footer naming its own
  // exact size is torn (or grew a duplicated tail) — nothing before the
  // seal can be trusted to frame correctly.
  const std::byte* footer = image.data() + (image.size() - kSnapshotFooterBytes);
  if (std::memcmp(footer, kFooterMagic, sizeof kFooterMagic) != 0 ||
      load_le32(footer + 8) != kFormatVersion ||
      load_le64(footer + 16) != image.size())
    return SnapshotError::kTruncatedSection;
  if (checksums && load_le32(footer + 12) !=
                       crc32c(image.subspan(0, kSnapshotHeaderBytes)))
    return SnapshotError::kBadCrc;

  const std::uint32_t section_count = load_le32(image.data() + 12);
  const std::uint64_t payload_bytes = load_le64(image.data() + 16);
  if (payload_bytes !=
      image.size() - kSnapshotHeaderBytes - kSnapshotFooterBytes)
    return SnapshotError::kTruncatedSection;

  // The section table is written straight into the caller's vector:
  // clear() keeps capacity, so a reused handle (SnapshotFile::reopen, the
  // store scan loop) validates without allocating, and a caller that only
  // wants the verdict pays for no table at all. On failure the partially
  // filled table is meaningless — callers must ignore it, as SnapshotFile
  // does by releasing on any error.
  if (sections_out != nullptr) {
    sections_out->clear();
    // Clamp the hint: a corrupt count field must not drive a huge reserve
    // before the walk below rejects it (each section costs ≥ 16 bytes of
    // payload area, so the quotient bounds any count a valid file can hold).
    sections_out->reserve(std::min<std::uint64_t>(
        section_count, payload_bytes / kSectionHeaderBytes));
  }
  std::size_t at = kSnapshotHeaderBytes;
  const std::size_t payload_end = kSnapshotHeaderBytes + payload_bytes;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    if (payload_end - at < kSectionHeaderBytes)
      return SnapshotError::kTruncatedSection;
    const std::uint32_t id = load_le32(image.data() + at);
    const std::uint32_t crc = load_le32(image.data() + at + 4);
    const std::uint64_t length = load_le64(image.data() + at + 8);
    at += kSectionHeaderBytes;
    if (payload_end - at < length) return SnapshotError::kTruncatedSection;
    if (checksums && section_crc(id, length, image.subspan(at, length)) != crc)
      return SnapshotError::kBadCrc;
    if (sections_out != nullptr)
      sections_out->push_back({id, at, static_cast<std::size_t>(length)});
    at += length;
  }
  if (at != payload_end) return SnapshotError::kTruncatedSection;
  return SnapshotError::kNone;
}

}  // namespace

SnapshotError validate_image(std::span<const std::byte> image,
                             std::vector<SectionView>* sections_out) {
  return check_image(image, sections_out, /*checksums=*/true);
}

bool commit_snapshot(const std::string& path,
                     std::span<const std::byte> image, std::string* error,
                     const CommitHooks* hooks) {
#if IXPSCOPE_HAVE_POSIX_IO
  // The temp name carries the writer's pid so concurrent processes
  // committing the same week never collide on the temp itself; both
  // renames then install byte-identical images (the pipeline is
  // deterministic), so a double-commit converges instead of tearing.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
#else
  const std::string temp = path + ".tmp";
#endif
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };

#if IXPSCOPE_HAVE_POSIX_IO
  // Ownership mark for concurrent scanners: while this lock is held, the
  // temp belongs to a live commit and scan() leaves it alone. The lock
  // dies with the descriptor — on any exit, including a crash mid-write
  // (a real kill drops the whole process; the simulated InjectedCrash
  // path closes the fd below) — at which point the orphan becomes
  // sweepable. Advisory is enough: every accessor is this codebase.
  //
  // Creating the file and locking it are two steps, so a scan can open
  // the temp in between, take the lock first and unlink it. The writer
  // therefore waits for the lock, then checks that the name still leads
  // to the file it holds, and starts over with a fresh file if not.
  // Truncation waits until the lock is ours: another commit of the same
  // week in this process may be writing the same temp name.
  int fd = -1;
  for (;;) {
    fd = ::open(temp.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd < 0) return fail("cannot create " + temp);
    int locked;
    do {
      locked = ::flock(fd, LOCK_EX);
    } while (locked != 0 && errno == EINTR);
    if (locked != 0) {
      ::close(fd);
      return fail("lock " + temp);
    }
    if (names_open_file(temp, fd)) break;
    ::close(fd);
  }
  if (::ftruncate(fd, 0) != 0) {
    ::close(fd);
    return fail("truncate " + temp);
  }

  const auto write_all = [&](std::span<const std::byte> bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ::ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  };

  // The write happens in two halves so a crash hook can leave a torn temp
  // on disk — exactly the state a real mid-write kill produces.
  const std::size_t half = image.size() / 2;
  try {
    if (!write_all(image.subspan(0, half))) {
      ::close(fd);
      return fail("write " + temp);
    }
    if (hooks != nullptr && hooks->mid_temp_write) hooks->mid_temp_write(temp);
    if (!write_all(image.subspan(half))) {
      ::close(fd);
      return fail("write " + temp);
    }
    if (hooks != nullptr && hooks->after_temp_write)
      hooks->after_temp_write(temp);
    if (::fsync(fd) != 0) {
      ::close(fd);
      return fail("fsync " + temp);
    }
    if (hooks != nullptr && hooks->after_temp_sync) hooks->after_temp_sync(temp);
  } catch (...) {
    ::close(fd);
    throw;  // the simulated crash: temp left exactly as it was, lock dropped
  }

  // The descriptor (and with it the ownership lock) stays open across the
  // rename: a concurrent scanner must never sweep the temp in the gap
  // between "fully written" and "renamed away".
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::close(fd);
    return fail("rename " + temp + " -> " + path);
  }
  ::close(fd);
  if (hooks != nullptr && hooks->after_rename) hooks->after_rename(path);

  // Seal the rename itself: the directory entry must be durable before
  // the caller treats the week as finished. The directory name is carved
  // on the stack — the commit hot path allocates for the temp name only.
  char dirbuf[4096];
  const auto slash = path.find_last_of('/');
  const char* dirpath = ".";
  if (slash != std::string::npos && slash > 0 && slash < sizeof dirbuf) {
    std::memcpy(dirbuf, path.data(), slash);
    dirbuf[slash] = '\0';
    dirpath = dirbuf;
  }
  const int dir_fd = ::open(dirpath, O_RDONLY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);  // best effort: some filesystems refuse dir fsync
    ::close(dir_fd);
  }
  return true;
#else
  // Portable fallback: no fsync available, but the temp+rename atomicity
  // still holds.
  {
    std::ofstream out{temp, std::ios::binary | std::ios::trunc};
    if (!out) return fail("cannot create " + temp);
    const std::size_t half = image.size() / 2;
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(half));
    out.flush();
    if (hooks != nullptr && hooks->mid_temp_write) hooks->mid_temp_write(temp);
    out.write(reinterpret_cast<const char*>(image.data() + half),
              static_cast<std::streamsize>(image.size() - half));
    if (!out) return fail("write " + temp);
    out.flush();
    if (hooks != nullptr && hooks->after_temp_write)
      hooks->after_temp_write(temp);
    if (hooks != nullptr && hooks->after_temp_sync) hooks->after_temp_sync(temp);
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    if (error != nullptr) *error = "rename " + temp + ": " + ec.message();
    return false;
  }
  if (hooks != nullptr && hooks->after_rename) hooks->after_rename(path);
  return true;
#endif
}

SnapshotFile::~SnapshotFile() { release(); }

SnapshotFile::SnapshotFile(SnapshotFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      owned_(std::move(other.owned_)),
      sections_(std::move(other.sections_)),
      stamp_(other.stamp_),
      error_(other.error_) {
  if (!mapped_ && !owned_.empty()) data_ = owned_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.error_ = SnapshotError::kOpenFailed;
}

SnapshotFile& SnapshotFile::operator=(SnapshotFile&& other) noexcept {
  if (this != &other) {
    release();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    owned_ = std::move(other.owned_);
    sections_ = std::move(other.sections_);
    stamp_ = other.stamp_;
    error_ = other.error_;
    if (!mapped_ && !owned_.empty()) data_ = owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    other.error_ = SnapshotError::kOpenFailed;
  }
  return *this;
}

void SnapshotFile::release() noexcept {
#if IXPSCOPE_HAVE_POSIX_IO
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  owned_.clear();
  owned_.shrink_to_fit();
  sections_.clear();
  stamp_ = {};
}

void SnapshotFile::validate(bool checksums) noexcept {
  error_ = check_image({data_, size_}, &sections_, checksums);
  if (!ok()) {
    const SnapshotError error = error_;
    release();
    error_ = error;
  }
}

SnapshotFile SnapshotFile::open(const std::string& path) {
  SnapshotFile file;
  (void)file.reopen(path);
  return file;
}

bool SnapshotFile::reopen(const std::string& path,
                          const FileStamp* validated) {
  // Let go of the previous image but keep the scratch: the section table
  // (and the read buffer on the non-mmap path) retain their capacity, so
  // a loop reopening snapshots — the store scan, the merge walk, the
  // roundtrip bench — validates without per-file allocation.
#if IXPSCOPE_HAVE_POSIX_IO
  if (mapped_ && data_ != nullptr)
    ::munmap(const_cast<std::byte*>(data_), size_);
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  stamp_ = {};
  error_ = SnapshotError::kOpenFailed;

#if IXPSCOPE_HAVE_POSIX_IO
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kSnapshotHeaderBytes + kSnapshotFooterBytes) {
    ::close(fd);
    error_ = SnapshotError::kTooShort;
    return false;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map != MAP_FAILED) {
    data_ = static_cast<const std::byte*>(map);
    size_ = size;
    mapped_ = true;
    stamp_ = stamp_of(st);
    validate(validated == nullptr || !(*validated == stamp_));
    return ok();
  }
  // mmap refused: fall through to the portable read path.
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) return false;
  in.seekg(0);
  owned_.resize(static_cast<std::size_t>(end));
  if (!owned_.empty() &&
      !in.read(reinterpret_cast<char*>(owned_.data()),
               static_cast<std::streamsize>(owned_.size()))) {
    owned_.clear();
    return false;
  }
  data_ = owned_.data();
  size_ = owned_.size();
  mapped_ = false;
  validate();
  return ok();
}

SnapshotFile SnapshotFile::adopt(std::vector<std::byte> bytes) {
  SnapshotFile file;
  file.owned_ = std::move(bytes);
  file.data_ = file.owned_.data();
  file.size_ = file.owned_.size();
  file.mapped_ = false;
  file.validate();
  return file;
}

std::span<const std::byte> SnapshotFile::section(std::uint32_t id) const noexcept {
  for (const SectionView& s : sections_) {
    if (s.id == id) return {data_ + s.offset, s.length};
  }
  return {};
}

bool SnapshotStore::ensure_dir(std::string* error) const {
  // Create first, then judge by the end state: runners started together
  // on one fresh --dir race to create it, so a probe ahead of the create
  // can see it missing and then present, and create_directories returns
  // false in the process that lost.
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::error_code probe;
  if (std::filesystem::is_directory(dir_, probe)) return true;
  if (std::filesystem::exists(dir_, probe)) {
    if (error != nullptr) *error = dir_ + " exists and is not a directory";
    return false;
  }
  if (error != nullptr) *error = "cannot create " + dir_ + ": " + ec.message();
  return false;
}

std::string SnapshotStore::path_for(int week) const {
  std::string digits = std::to_string(week);
  while (digits.size() < 4) digits.insert(digits.begin(), '0');
  return dir_ + "/week_" + digits + ".snap";
}

bool SnapshotStore::save(int week, std::span<const Section> sections,
                         std::string* error, const CommitHooks* hooks) const {
  const std::vector<std::byte> image = encode_snapshot(sections);
  return commit_snapshot(path_for(week), image, error, hooks);
}

QuarantineEvent SnapshotStore::quarantine(const std::string& path,
                                          SnapshotError error) const {
  QuarantineEvent event;
  event.file = path;
  event.error = error;
  const std::string target = path + ".quarantined-" + error_tag(error);
  std::error_code ec;
  std::filesystem::rename(path, target, ec);
  if (!ec) event.quarantined_as = target;
  return event;
}

SnapshotFile SnapshotStore::load(int week,
                                 std::optional<QuarantineEvent>* quarantined,
                                 const FileStamp* validated) const {
  if (quarantined != nullptr) quarantined->reset();
  const std::string path = path_for(week);
  SnapshotFile file;
  (void)file.reopen(path, validated);
  if (!file.ok() && file.error() != SnapshotError::kOpenFailed) {
    const QuarantineEvent event = quarantine(path, file.error());
    if (quarantined != nullptr) *quarantined = event;
  }
  return file;
}

SnapshotStore::ScanResult SnapshotStore::scan() const {
  ScanResult result;
  std::error_code ec;
  std::filesystem::directory_iterator it{dir_, ec};
  if (ec) {
    result.readable = false;
    result.error = dir_ + ": " + ec.message();
    return result;
  }
  SnapshotFile file;  // one handle, revalidated per entry (scratch reuse)
  std::vector<std::pair<int, FileStamp>> valid;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("week_") &&
        name.find(".snap.tmp") != std::string::npos) {
      // A temp is either a live commit's work-in-progress (its writer
      // holds the ownership flock) or the residue of a crash between
      // write and rename. Only the orphan may be dropped: probe the lock
      // non-blocking, and sweep while holding it so two scanners never
      // race each other either. Matches both the portable `.snap.tmp`
      // and the pid-suffixed `.snap.tmp.<pid>` spelling.
      const std::string temp_path = entry.path().string();
#if IXPSCOPE_HAVE_POSIX_IO
      const int fd = ::open(temp_path.c_str(), O_RDONLY);
      if (fd >= 0) {
        // Locked but no longer at its name: another scan swept it since
        // our open, and the name may now be a live commit's new temp.
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0 ||
            !names_open_file(temp_path, fd)) {
          ::close(fd);  // a live commit owns it — not ours to sweep
          continue;
        }
        if (::unlink(temp_path.c_str()) == 0) ++result.stale_temps_removed;
        ::close(fd);
      }
#else
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec))
        ++result.stale_temps_removed;
#endif
      continue;
    }
    if (!name.starts_with("week_") || !name.ends_with(".snap")) continue;
    const std::string digits = name.substr(5, name.size() - 5 - 5);
    int week = 0;
    const auto [ptr, parse_ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), week);
    // Only the name path_for() gives the week is the store's: a load
    // opens that name, so `week_45.snap` or `week_-045.snap` is skipped
    // like any other file the store does not own.
    if (parse_ec != std::errc{} || ptr != digits.data() + digits.size() ||
        name != std::filesystem::path{path_for(week)}.filename().string())
      continue;
    const std::string path = entry.path().string();
    if (file.reopen(path)) {
      valid.emplace_back(week, file.stamp());
    } else {
      result.quarantined.push_back(quarantine(path, file.error()));
    }
  }
  std::sort(valid.begin(), valid.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  result.weeks.reserve(valid.size());
  result.stamps.reserve(valid.size());
  for (const auto& [week, stamp] : valid) {
    result.weeks.push_back(week);
    result.stamps.push_back(stamp);
  }
  return result;
}

}  // namespace ixp::store
