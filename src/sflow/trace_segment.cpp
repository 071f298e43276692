#include "sflow/trace_segment.hpp"

namespace ixp::sflow {

bool plausible_record_at(std::span<const std::byte> trace, std::uint64_t at,
                         Datagram& probe) {
  const std::uint64_t size = trace.size();
  if (at + 8 > size) return false;
  const std::byte* const p = trace.data() + at;
  const std::uint32_t length = load_be32(p);
  if (length < kMinDatagramBytes || length > kMaxDatagramBytes) return false;
  if (at + 4 + length > size) return false;
  if (load_be32(p + 4) != Datagram::kVersion) return false;
  return decode_into({p + 4, length}, probe);
}

std::uint64_t scan_for_record(std::span<const std::byte> trace,
                              std::uint64_t from, Datagram& probe) {
  const std::uint64_t size = trace.size();
  for (std::uint64_t candidate = from; candidate + 8 <= size; ++candidate) {
    if (plausible_record_at(trace, candidate, probe)) return candidate;
  }
  return size;
}

std::vector<TraceSegment> TraceSegmenter::split(std::span<const std::byte> trace,
                                                std::size_t want) {
  std::vector<TraceSegment> segments;
  const std::uint64_t size = trace.size();
  if (want == 0 || size <= kTraceHeaderBytes) return segments;

  // Segment 0 always starts right after the header, plausible record
  // there or not (corruption at the very first record is the cursor's
  // problem). Later starts slide forward to a plausible boundary.
  std::vector<std::uint64_t> starts{kTraceHeaderBytes};
  const std::uint64_t body = size - kTraceHeaderBytes;
  Datagram probe;
  for (std::size_t k = 1; k < want; ++k) {
    const std::uint64_t boundary = kTraceHeaderBytes + body * k / want;
    const std::uint64_t start = scan_for_record(trace, boundary, probe);
    if (start >= size) break;  // nothing decodable at or past the boundary
    if (start > starts.back()) starts.push_back(start);
  }
  segments.reserve(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::uint64_t end = i + 1 < starts.size() ? starts[i + 1] : size;
    segments.push_back({starts[i], end});
  }
  return segments;
}

TraceCursor::TraceCursor(std::span<const std::byte> trace, TraceSegment seg,
                         ReadPolicy policy) {
  reset(trace, seg, policy);
}

void TraceCursor::reset(std::span<const std::byte> trace, TraceSegment seg,
                        ReadPolicy policy) {
  trace_ = trace;
  seg_ = seg;
  policy_ = policy;
  stats_ = ReaderStats{};
  ok_ = true;
  pos_ = seg.begin;
  current_.samples.clear();
  current_.counters.clear();
  current_offset_ = seg.begin;
}

bool TraceCursor::spend_error() {
  if (stats_.errors() > policy_.max_errors) {
    ok_ = false;
    return false;
  }
  return true;
}

// Scans forward from the byte after `bad_record_start` for the next
// plausible record. On success the skipped gap is charged and the cursor
// is repositioned at that record; when fewer than 8 bytes remain anywhere
// ahead, everything from the bad record to the end of the trace is
// skipped without counting a resync. For a non-final segment the scan
// can never cross seg_.end: the segment end is itself a plausible record
// start (the segmenter chose it with this very test), so the scan lands
// there at the latest and the refill loop then ends the segment cleanly.
bool TraceCursor::resync(std::uint64_t bad_record_start) {
  const std::uint64_t size = trace_.size();
  std::uint64_t candidate = bad_record_start + 1;
  while (candidate + 8 <= size) {
    if (plausible_record_at(trace_, candidate, probe_)) {
      stats_.bytes_skipped += candidate - bad_record_start;
      ++stats_.resyncs;
      pos_ = candidate;
      return true;
    }
    ++candidate;
  }
  stats_.bytes_skipped += size - bad_record_start;
  pos_ = size;
  return false;
}

bool TraceCursor::refill() {
  const std::uint64_t size = trace_.size();
  while (ok_) {
    if (pos_ >= seg_.end) return false;  // clean end of segment
    const std::uint64_t record_start = pos_;

    if (size - record_start < 4) {
      pos_ = size;
      ++stats_.truncated;  // end of trace inside the length prefix
    } else {
      const std::uint32_t length = load_be32(trace_.data() + record_start);
      if (length < kMinDatagramBytes || length > kMaxDatagramBytes) {
        pos_ = record_start + 4;
        ++stats_.bad_length;
      } else if (size - record_start - 4 < length) {
        pos_ = size;
        ++stats_.truncated;  // end of trace inside the payload
      } else if (decode_into({trace_.data() + record_start + 4, length},
                             current_)) {
        pos_ = record_start + 4 + length;
        current_offset_ = record_start;
        ++stats_.datagrams;
        stats_.samples += current_.samples.size();
        stats_.bytes_delivered += 4 + length;
        if (current_.samples.empty()) continue;  // valid, nothing to deliver
        return true;
      } else {
        pos_ = record_start + 4 + length;
        ++stats_.decode_errors;
      }
    }

    // A corrupt record starts at record_start; spend budget and scan past
    // the damage.
    if (!spend_error()) return false;
    if (!resync(record_start)) return false;  // scanned to end of input
  }
  return false;
}

std::span<const FlowSample> TraceCursor::read_record(std::uint64_t& seq_base) {
  if (!refill()) return {};
  seq_base = stream_seq_key(current_offset_, 0);
  return current_.samples;
}

}  // namespace ixp::sflow
