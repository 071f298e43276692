// Parallel segmentation and decoding of a mapped trace — the one trace
// decoder.
//
// A MappedTrace is one flat span of bytes; to decode it on N threads the
// span has to be cut into byte ranges that each start exactly on a record
// boundary. TraceSegmenter does that: it picks N evenly spaced raw
// offsets and slides each one forward to the first *plausible* record
// start — the same plausibility test TraceCursor's resync scanner
// applies (length prefix in bounds, payload fits, sFlow version word,
// full clean decode). TraceCursor then walks one segment, carrying the
// whole failure model of DESIGN.md §8: every corrupt record is counted
// in the ReaderStats taxonomy (bad length, truncated, decode error) and,
// budget permitting, the cursor scans forward to the next plausible
// record and charges the gap to bytes_skipped. So that:
//
//   * per-segment ReaderStats sum exactly to the whole-file taxonomy of
//     a single cursor over the whole body (every byte is header,
//     delivered, or skipped — in exactly one segment), and
//   * the set of delivered records is identical to that single-cursor
//     walk, which is what keeps an N-thread analysis byte-identical to
//     the 1-thread report.
//
// The boundary argument: a segment start chosen by the scanner is a
// plausible record offset, so the whole-body walk — which only ever
// stops at record starts or resync landings, and whose resync scanner
// applies the *same* plausibility test — visits it too. Each cursor
// therefore retraces exactly the slice of the whole-body walk between
// its segment's endpoints: a cursor stops when its position reaches the
// segment end, and a resync that scans up to the boundary lands on it
// (the boundary is plausible by construction) instead of crossing into
// the next worker's bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sflow/trace.hpp"

namespace ixp::sflow {

/// Half-open byte range [begin, end) of one worker's slice of the trace.
struct TraceSegment {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
  friend bool operator==(const TraceSegment&, const TraceSegment&) = default;
};

/// True when a plausible length-prefixed record starts at byte `at` of
/// `trace`: length prefix in [kMinDatagramBytes, kMaxDatagramBytes], the
/// payload fits in the remaining bytes, starts with the sFlow version
/// word, and decodes cleanly into `probe` (reused across calls to keep
/// the scan allocation-free). The resync test and the segmenter's
/// boundary test are both this function.
[[nodiscard]] bool plausible_record_at(std::span<const std::byte> trace,
                                       std::uint64_t at, Datagram& probe);

/// First offset >= `from` where a plausible record starts, or
/// trace.size() when none exists.
[[nodiscard]] std::uint64_t scan_for_record(std::span<const std::byte> trace,
                                            std::uint64_t from,
                                            Datagram& probe);

/// Splits a trace image (header included) into up to `want` contiguous
/// segments that cover [kTraceHeaderBytes, size) exactly: the first
/// segment starts right after the header, every later segment starts on
/// a plausible record boundary, and each segment's end is the next
/// segment's begin (the last ends at the trace size). Fewer than `want`
/// segments come back when the trace is too small to cut that many ways.
class TraceSegmenter {
 public:
  [[nodiscard]] static std::vector<TraceSegment> split(
      std::span<const std::byte> trace, std::size_t want);
};

/// Decodes the records of one TraceSegment straight out of the mapped
/// bytes, with the failure model described above — taxonomy counters,
/// resync scan, error budget — and zero steady-state allocations: the
/// decoded Datagram and the resync probe are reused across records, and
/// read_record() hands out a span into the cursor's own buffer (valid
/// until the next call).
class TraceCursor {
 public:
  TraceCursor(std::span<const std::byte> trace, TraceSegment seg,
              ReadPolicy policy = ReadPolicy::lenient());

  /// Re-targets the cursor at another segment, clearing stats and
  /// position but keeping every internal buffer's capacity.
  void reset(std::span<const std::byte> trace, TraceSegment seg,
             ReadPolicy policy = ReadPolicy::lenient());

  /// True until the error budget is exceeded. A lenient cursor that
  /// resynchronized past damage stays ok(); stats().degraded() tells
  /// whether anything was lost.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const ReaderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TraceSegment& segment() const noexcept { return seg_; }

  /// Decodes the next record of the segment and returns its flow samples
  /// (a view into the cursor's reused buffer — consume before the next
  /// call). Sets `seq_base` to the stream_seq_key of the first sample.
  /// Empty at the end of the segment or once the budget clears ok().
  std::span<const FlowSample> read_record(std::uint64_t& seq_base);

  /// Absolute trace offset of the last delivered record's length prefix.
  /// Meaningful only after a non-empty read_record().
  [[nodiscard]] std::uint64_t record_offset() const noexcept {
    return current_offset_;
  }

  /// Raw encoded payload of the last delivered record (length prefix
  /// stripped) — what a live agent would have sent as one datagram. The
  /// replayer pairs this with record_offset() to re-send a trace through
  /// the collector service with its original stream keys intact.
  [[nodiscard]] std::span<const std::byte> record_bytes() const noexcept {
    return trace_.subspan(current_offset_ + 4, pos_ - current_offset_ - 4);
  }

 private:
  bool refill();
  bool resync(std::uint64_t bad_record_start);
  [[nodiscard]] bool spend_error();

  std::span<const std::byte> trace_;
  TraceSegment seg_{};
  ReadPolicy policy_;
  ReaderStats stats_;
  bool ok_ = false;
  std::uint64_t pos_ = 0;  ///< absolute offset of the next unread byte
  Datagram current_;       ///< decoded record, reused across read_record()
  Datagram probe_;         ///< resync decode probe, reused
  std::uint64_t current_offset_ = 0;  ///< record start of current_
};

}  // namespace ixp::sflow
