// IngestSource — the one way sample streams enter the analysis engine.
//
// Anything that can deliver batches of FlowSamples with stream-position
// keys is a source, and the analyzer, the serve pump workers, and the CLI
// all consume this single API instead of one code path per input shape.
// Four adapters ship: SpanSource (an in-memory sample span), MappedSource
// (a recorded trace, decoded by TraceCursor), gen::WeekSource (a generated
// week, pulled from the generator's producer thread batch by batch) and
// core::LiveQueueSource (the collector service's live socket feed, pulled
// directly by serve's own workers rather than through ParallelAnalyzer).
//
// The contract has three parts:
//
//   next_batch(SampleBatch&) -> SourceStatus
//     Serial pull. Each batch is a view into source-owned storage, valid
//     until the next pull (or the source's destruction), plus the stream
//     key of its first sample. Keys must order samples exactly as the
//     equivalent single-stream walk would: contiguous running indices
//     for in-memory shapes, sflow::stream_seq_key(offset, index) for
//     trace-backed ones. kEnd ends the stream.
//
//   stats() / ok()
//     ReaderStats accounting for trace-backed sources (the exact byte
//     taxonomy of DESIGN.md §8: every input byte is header, delivered,
//     or skipped); zeros for in-memory shapes. ok() turns false when a
//     source's error budget is exceeded and the stream was cut short.
//
//   split(want) -> sub-sources
//     Parallel plan. A source that can be decoded concurrently (a mapped
//     trace, a span) cuts its remainder into up to `want` independently
//     consumable sub-sources; worker threads claim and drain them with
//     no cross-worker sequence handoff, because every batch carries its
//     own position-derived key. A serial source returns an empty vector
//     and the analyzer pumps it from one thread instead: gen::WeekSource,
//     which every generated week (the CLI's diff and weeks, the
//     experiments) is fed through, and parallel_fault_test's SerialSource.
//     Sub-sources borrow the parent (which must outlive them) and
//     partition its accounting; after a split() the parent itself must
//     not be pulled again.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"

namespace ixp::ingest {

/// Outcome of one next_batch() pull.
enum class SourceStatus {
  kBatch,  ///< `out` holds at least one sample
  kEnd,    ///< end of stream; `out` is untouched
};

/// One unit of work: samples occupying stream positions
/// [first_seq, first_seq + samples.size()) — running indices for
/// in-memory sources, record-granular stream_seq_key positions for
/// trace-backed ones (the low 16 bits index within the record, so
/// first_seq + i is sample i's key either way).
struct SampleBatch {
  std::span<const sflow::FlowSample> samples;
  std::uint64_t first_seq = 0;
};

class IngestSource {
 public:
  virtual ~IngestSource() = default;

  /// Delivers the next batch. The returned view stays valid until the
  /// next next_batch() call on this source (or its destruction).
  virtual SourceStatus next_batch(SampleBatch& out) = 0;

  /// Accounting accumulated so far. Trace-backed sources report the
  /// exact reader taxonomy; in-memory sources report zeros.
  [[nodiscard]] virtual sflow::ReaderStats stats() const { return {}; }

  /// False once the source's error budget was exceeded and the stream
  /// was (or will be) cut short.
  [[nodiscard]] virtual bool ok() const { return true; }

  /// Cuts the remaining stream into up to `want` sub-sources that may be
  /// consumed concurrently (each by one thread). Empty means the source
  /// is serial and must be pumped. Default: serial.
  [[nodiscard]] virtual std::vector<std::unique_ptr<IngestSource>> split(
      std::size_t want) {
    (void)want;
    return {};
  }
};

/// Adapts an in-memory sample span: fixed-size batches with running-index
/// keys. split() cuts on batch boundaries, so the (batch, first_seq)
/// pairs a split consumption produces are exactly the serial ones — the
/// report stays byte-identical for any split.
class SpanSource final : public IngestSource {
 public:
  SpanSource(std::span<const sflow::FlowSample> samples,
             std::size_t batch_size, std::uint64_t base_seq = 0)
      : samples_(samples),
        batch_size_(batch_size == 0 ? 1 : batch_size),
        base_seq_(base_seq) {}

  SourceStatus next_batch(SampleBatch& out) override {
    if (cursor_ >= samples_.size()) return SourceStatus::kEnd;
    const std::size_t n = std::min(batch_size_, samples_.size() - cursor_);
    out.samples = samples_.subspan(cursor_, n);
    out.first_seq = base_seq_ + cursor_;
    cursor_ += n;
    return SourceStatus::kBatch;
  }

  std::vector<std::unique_ptr<IngestSource>> split(std::size_t want) override;

 private:
  std::span<const sflow::FlowSample> samples_;
  std::size_t batch_size_;
  std::uint64_t base_seq_;
  std::size_t cursor_ = 0;
};

/// Adapts a mapped trace. split() cuts the byte span on plausible record
/// boundaries (TraceSegmenter) into per-segment cursor sources that
/// decode concurrently; serially pulled, it walks the whole body as one
/// segment. Segments always decode leniently — one segment cannot know
/// the others' error count — so the policy is a post-hoc budget on the
/// summed taxonomy: within_budget() (and ok()) report whether the
/// whole-trace error count stayed inside it.
/// Per-segment stats partition the whole-file accounting exactly:
///   trace size == 12 + total.bytes_delivered + total.bytes_skipped.
class MappedSource final : public IngestSource {
 public:
  explicit MappedSource(const sflow::MappedTrace& trace,
                        sflow::ReadPolicy policy = sflow::ReadPolicy::strict())
      : bytes_(trace.bytes()), policy_(policy) {}

  /// For tests and in-memory images: any trace byte span, header included.
  explicit MappedSource(std::span<const std::byte> trace_bytes,
                        sflow::ReadPolicy policy = sflow::ReadPolicy::strict())
      : bytes_(trace_bytes), policy_(policy) {}

  SourceStatus next_batch(SampleBatch& out) override;
  std::vector<std::unique_ptr<IngestSource>> split(std::size_t want) override;

  /// Summed per-segment taxonomy (exact whole-file accounting).
  [[nodiscard]] sflow::ReaderStats stats() const override {
    sflow::ReaderStats total;
    for (const auto& s : per_segment_) total += s;
    return total;
  }
  /// True while the summed error count is inside the policy budget.
  [[nodiscard]] bool within_budget() const {
    return stats().errors() <= policy_.max_errors;
  }
  [[nodiscard]] bool ok() const override { return within_budget(); }

  [[nodiscard]] const std::vector<sflow::TraceSegment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] const std::vector<sflow::ReaderStats>& per_segment() const noexcept {
    return per_segment_;
  }
  [[nodiscard]] const sflow::ReadPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  class SegmentSource;

  /// Lays out segments and their stats slots; idempotent guard for the
  /// serial path (split() overwrites any serial layout).
  void segment(std::size_t want);

  std::span<const std::byte> bytes_;
  sflow::ReadPolicy policy_;
  std::vector<sflow::TraceSegment> segments_;
  std::vector<sflow::ReaderStats> per_segment_;
  // Serial-pull state.
  std::unique_ptr<sflow::TraceCursor> cursor_;
  std::size_t serial_segment_ = 0;
  bool segmented_ = false;
};

}  // namespace ixp::ingest
