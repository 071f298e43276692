#include "ingest/ingest_source.hpp"

#include <algorithm>

namespace ixp::ingest {

std::vector<std::unique_ptr<IngestSource>> SpanSource::split(std::size_t want) {
  std::vector<std::unique_ptr<IngestSource>> parts;
  const std::size_t remaining = samples_.size() - cursor_;
  if (want == 0 || remaining == 0) return parts;

  // Cut the remainder on batch boundaries: each part re-emits exactly
  // the batches (and first_seq keys) the serial walk would, just claimed
  // by different workers.
  const std::size_t batches = (remaining + batch_size_ - 1) / batch_size_;
  const std::size_t per_part = (batches + want - 1) / want;
  parts.reserve(std::min(want, batches));
  for (std::size_t b = 0; b < batches; b += per_part) {
    const std::size_t begin = cursor_ + b * batch_size_;
    const std::size_t count =
        std::min(per_part * batch_size_, samples_.size() - begin);
    parts.push_back(std::make_unique<SpanSource>(
        samples_.subspan(begin, count), batch_size_, base_seq_ + begin));
  }
  cursor_ = samples_.size();  // the parent's remainder is now owned by parts
  return parts;
}

/// One worker's slice of a mapped trace: a TraceCursor over one segment,
/// flushing its running ReaderStats into the parent's per-segment slot
/// on every pull so the accounting is current even when an exception
/// aborts the analysis mid-segment. Each slot is written by exactly one
/// consumer and read by the caller only after the workers are joined.
class MappedSource::SegmentSource final : public IngestSource {
 public:
  SegmentSource(std::span<const std::byte> trace, sflow::TraceSegment seg,
                sflow::ReaderStats* slot)
      : cursor_(trace, seg, sflow::ReadPolicy::lenient()), slot_(slot) {}

  SourceStatus next_batch(SampleBatch& out) override {
    std::uint64_t seq_base = 0;
    const auto samples = cursor_.read_record(seq_base);
    *slot_ = cursor_.stats();
    if (samples.empty()) return SourceStatus::kEnd;
    out.samples = samples;
    out.first_seq = seq_base;
    return SourceStatus::kBatch;
  }

  [[nodiscard]] sflow::ReaderStats stats() const override {
    return cursor_.stats();
  }

 private:
  sflow::TraceCursor cursor_;
  sflow::ReaderStats* slot_;
};

void MappedSource::segment(std::size_t want) {
  segments_ = sflow::TraceSegmenter::split(bytes_, want);
  per_segment_.assign(segments_.size(), sflow::ReaderStats{});
  segmented_ = true;
}

SourceStatus MappedSource::next_batch(SampleBatch& out) {
  if (!segmented_) {
    // Serial pull: the whole body as one segment.
    segment(1);
    serial_segment_ = 0;
    cursor_.reset();
  }
  while (serial_segment_ < segments_.size()) {
    if (!cursor_) {
      cursor_ = std::make_unique<sflow::TraceCursor>(
          bytes_, segments_[serial_segment_], sflow::ReadPolicy::lenient());
    }
    std::uint64_t seq_base = 0;
    const auto samples = cursor_->read_record(seq_base);
    per_segment_[serial_segment_] = cursor_->stats();
    if (!samples.empty()) {
      out.samples = samples;
      out.first_seq = seq_base;
      return SourceStatus::kBatch;
    }
    cursor_.reset();
    ++serial_segment_;
  }
  return SourceStatus::kEnd;
}

std::vector<std::unique_ptr<IngestSource>> MappedSource::split(
    std::size_t want) {
  std::vector<std::unique_ptr<IngestSource>> parts;
  if (want == 0) return parts;
  segment(want);
  serial_segment_ = segments_.size();  // the parent's remainder is spoken for
  cursor_.reset();
  parts.reserve(segments_.size());
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    parts.push_back(std::make_unique<SegmentSource>(bytes_, segments_[s],
                                                    &per_segment_[s]));
  }
  return parts;
}

}  // namespace ixp::ingest
