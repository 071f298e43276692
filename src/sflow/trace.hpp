// Trace recording and replay.
//
// The paper's measurement setup stores the collector's sFlow stream and
// replays it through analysis pipelines. TraceWriter batches FlowSamples
// into length-prefixed sFlow datagrams on any std::ostream; MappedTrace
// (mapped_trace.hpp) and TraceCursor (trace_segment.hpp) decode them
// back. This is what makes the pipeline usable on recorded data:
// generate once, analyze many times — or ingest a real collector dump
// converted to this framing.
//
// File layout: magic "IXPSCOPE" + u32 version, then repeated
// [u32 datagram length][datagram bytes] until EOF.
//
// Real traces get damaged: bits flip on disk, transfers truncate, a
// crashed collector leaves a half-written record. The decoder therefore
// carries a failure model (DESIGN.md §8): every corrupt record is
// classified into an error taxonomy (ReaderStats), and — budget
// permitting (ReadPolicy) — the cursor resynchronizes by scanning
// forward for the next plausible length-prefixed datagram instead of
// halting. Every byte of the input is accounted for: it is either the
// 12-byte header, part of a delivered record, or counted in
// `bytes_skipped`.
#pragma once

#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "sflow/datagram.hpp"

namespace ixp::sflow {

inline constexpr char kTraceMagic[8] = {'I', 'X', 'P', 'S', 'C', 'O', 'P', 'E'};
inline constexpr std::uint32_t kTraceVersion = 1;

/// Smallest encodable datagram: five header u32s plus the counter count.
inline constexpr std::uint32_t kMinDatagramBytes = 24;
/// Upper bound on a plausible record; anything larger is a bad length.
/// (The writer's 128-sample batches are ~20 KiB; 1 MiB leaves headroom.)
inline constexpr std::uint32_t kMaxDatagramBytes = 1u << 20;
/// Bytes of trace header: the magic plus the u32 version.
inline constexpr std::uint64_t kTraceHeaderBytes = sizeof kTraceMagic + 4;

/// Stream-position key of sample `index` inside the record whose length
/// prefix starts at byte `offset`. Strictly increasing along the stream
/// (records are ≥ 28 bytes apart and a ≤1 MiB payload holds < 2^16
/// samples), so it totally orders samples the same way a running sample
/// counter would — which is all the analysis pipeline's order statistics
/// consume. Unlike a counter, it is computable for any record in
/// isolation: the property that lets mapped-trace segments be decoded and
/// analyzed in parallel with no sequence handoff between workers.
/// (Offsets stay below 2^48 — 256 TiB per trace file — by construction.)
[[nodiscard]] constexpr std::uint64_t stream_seq_key(std::uint64_t offset,
                                                     std::size_t index) noexcept {
  return (offset << 16) | static_cast<std::uint64_t>(index);
}

/// Buffers samples and writes them as datagrams of up to `batch` samples.
/// Flushes on destruction; call flush() to force a partial batch out.
/// Each sample is encoded into the pending record as it arrives, so the
/// bytes written equal `[u32 length][encode(Datagram)]` per batch.
class TraceWriter {
 public:
  /// Writes the trace header immediately. `agent` identifies the
  /// exporting switch in every datagram.
  TraceWriter(std::ostream& out, net::Ipv4Addr agent, std::size_t batch = 64);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const FlowSample& sample);
  void flush();

  [[nodiscard]] std::uint64_t samples_written() const noexcept {
    return samples_written_;
  }
  [[nodiscard]] std::uint32_t datagrams_written() const noexcept {
    return sequence_;
  }

 private:
  std::ostream* out_;
  net::Ipv4Addr agent_;
  std::size_t batch_;
  /// The record being built: length prefix and datagram header (both
  /// filled in by flush()), then the pending samples' wire bytes.
  std::vector<std::byte> record_;
  std::size_t pending_ = 0;  // samples in record_
  std::uint32_t sequence_ = 0;
  std::uint64_t samples_written_ = 0;
};

/// How trace decoding responds to corruption. `max_errors` is the number
/// of corrupt records tolerated (each one resynchronized past); one more
/// clears ok(). strict() tolerates none and is the default. A TraceCursor
/// stops at the overrun; ingest::MappedSource decodes everything and
/// judges the summed taxonomy against the budget afterwards.
struct ReadPolicy {
  std::uint64_t max_errors = 0;

  [[nodiscard]] static constexpr ReadPolicy strict() noexcept { return {0}; }
  [[nodiscard]] static constexpr ReadPolicy lenient(
      std::uint64_t budget =
          std::numeric_limits<std::uint64_t>::max()) noexcept {
    return {budget};
  }
};

/// Error taxonomy and byte accounting for one decoded trace (or one
/// TraceCursor segment of it). The invariant (tested by the corruption
/// matrix) is exact accounting once decoding reaches end-of-input:
///   input_size == 12 (header) + bytes_delivered + bytes_skipped
struct ReaderStats {
  // Delivery side.
  std::uint64_t datagrams = 0;        ///< records decoded and delivered
  std::uint64_t samples = 0;          ///< flow samples delivered
  std::uint64_t bytes_delivered = 0;  ///< length prefix + payload of each

  // Error taxonomy.
  std::uint64_t bad_length = 0;    ///< length prefix of 0 or > kMaxDatagramBytes
  std::uint64_t truncated = 0;     ///< EOF inside a length prefix or payload
  std::uint64_t decode_errors = 0; ///< payload failed Datagram decode

  // Recovery.
  std::uint64_t resyncs = 0;        ///< successful scans to a later record
  std::uint64_t bytes_skipped = 0;  ///< every byte not header / delivered

  [[nodiscard]] std::uint64_t errors() const noexcept {
    return bad_length + truncated + decode_errors;
  }
  [[nodiscard]] bool degraded() const noexcept { return errors() > 0; }

  /// Field-wise sum — what rolls per-segment cursor stats up into the
  /// whole-file taxonomy (segments partition the byte accounting).
  ReaderStats& operator+=(const ReaderStats& other) noexcept {
    datagrams += other.datagrams;
    samples += other.samples;
    bytes_delivered += other.bytes_delivered;
    bad_length += other.bad_length;
    truncated += other.truncated;
    decode_errors += other.decode_errors;
    resyncs += other.resyncs;
    bytes_skipped += other.bytes_skipped;
    return *this;
  }

  friend bool operator==(const ReaderStats&, const ReaderStats&) = default;
};

}  // namespace ixp::sflow
