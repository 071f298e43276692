// Test oracle: an istream-based trace decoder, kept out of the shipped
// libraries. It implements the failure model of DESIGN.md §8 apart from
// TraceCursor — same error taxonomy, resync scan and byte accounting,
// but reading through a seekable stream instead of a mapped span — so
// the parity tests can hold the shipped cursor to it on clean traces and
// on the whole corruption matrix. Only those tests link it.
#pragma once

#include <cstdint>
#include <istream>
#include <vector>

#include "sflow/datagram.hpp"
#include "sflow/trace.hpp"

namespace ixp::sflow {

/// Streams the records of a trace out of an istream. The stream must be
/// seekable (stringstreams are): a lenient policy resynchronizes by
/// seeking forward past each corrupt record.
class StreamedTraceOracle {
 public:
  /// Validates the header; `ok()` is false on a bad magic/version.
  explicit StreamedTraceOracle(std::istream& in,
                               ReadPolicy policy = ReadPolicy::strict());

  /// True until the header is rejected or the error budget is exceeded.
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  [[nodiscard]] const ReaderStats& stats() const noexcept { return stats_; }

  /// Clears `out` and refills it with the (remaining) samples of exactly
  /// one delivered record, setting `seq_base` to the stream_seq_key of the
  /// first sample delivered. Returns the number delivered, 0 at
  /// end-of-trace.
  std::size_t read_record(std::vector<FlowSample>& out, std::uint64_t& seq_base);

 private:
  bool refill();
  bool resync(std::uint64_t bad_record_start);
  [[nodiscard]] bool spend_error();

  std::istream* in_;
  ReadPolicy policy_;
  ReaderStats stats_;
  bool ok_ = false;
  std::uint64_t pos_ = 0;  ///< absolute offset of the next unread byte
  Datagram current_;       ///< decoded datagram being drained
  std::size_t cursor_ = 0; ///< next undelivered sample in current_
  std::uint64_t current_offset_ = 0;  ///< record start of current_
  std::vector<std::byte> scratch_;    ///< payload bytes, reused per record
  Datagram probe_;                    ///< resync decode probe, reused
};

}  // namespace ixp::sflow
