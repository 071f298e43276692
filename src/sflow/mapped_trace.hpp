// Memory-mapped trace input.
//
// Every recorded trace enters the pipeline through MappedTrace. It
// exposes the whole trace as a single immutable
// `std::span<const std::byte>`: on POSIX hosts via mmap(PROT_READ,
// MAP_PRIVATE) — the kernel pages bytes in on demand and shares them
// read-only across every worker thread — and elsewhere via a portable
// read-the-whole-file fallback into an owned buffer. Either way
// the bytes are position-addressable, which is what lets TraceSegmenter
// (trace_segment.hpp) hand disjoint byte ranges to worker threads that
// decode in parallel with no shared cursor.
//
// The trace header (magic + version, kTraceHeaderBytes) is validated at
// open; error() distinguishes a file that could not be opened, one
// shorter than the header, and one whose header bytes are wrong, so
// callers (the CLI) can report each case distinctly.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ixp::sflow {

/// A read-only view of one recorded trace file, mmap'ed when the platform
/// allows and fully read into memory otherwise. Move-only; unmaps /
/// releases on destruction.
class MappedTrace {
 public:
  /// Why open() failed (or kNone when it did not).
  enum class Error {
    kNone,        ///< trace opened and header validated
    kOpenFailed,  ///< the file could not be opened or stat'ed
    kTooShort,    ///< file smaller than the 12-byte trace header
    kBadHeader,   ///< magic or version mismatch
  };

  MappedTrace() = default;
  ~MappedTrace();

  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  /// Maps (or reads) the trace at `path` and validates its header.
  [[nodiscard]] static MappedTrace open(const std::string& path);

  /// Wraps an in-memory trace image (tests, benchmarks); validates the
  /// header exactly like open(). The buffer is owned by the result.
  [[nodiscard]] static MappedTrace adopt(std::vector<std::byte> bytes);

  /// True when the trace opened and the header validated.
  [[nodiscard]] bool ok() const noexcept { return error_ == Error::kNone; }
  [[nodiscard]] Error error() const noexcept { return error_; }

  /// The full trace image, header included. Empty unless ok().
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_, size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when the bytes come from mmap rather than the read fallback.
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_; }

  /// Human-readable name for an Error, for CLI diagnostics.
  [[nodiscard]] static const char* error_name(Error error) noexcept;

 private:
  void release() noexcept;
  /// Validates magic + version; sets error_ accordingly.
  void validate_header() noexcept;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                ///< data_ came from mmap
  std::vector<std::byte> owned_;       ///< backing store for the fallback
  Error error_ = Error::kOpenFailed;   ///< default-constructed = not open
};

}  // namespace ixp::sflow
