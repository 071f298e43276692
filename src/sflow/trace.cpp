#include "sflow/trace.hpp"

namespace ixp::sflow {

namespace {

/// Length prefix plus datagram header: the fixed start of every record.
constexpr std::size_t kRecordHeaderBytes = 4 + Datagram::kHeaderBytes;

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, net::Ipv4Addr agent,
                         std::size_t batch)
    : out_(&out),
      agent_(agent),
      batch_(batch == 0 ? 1 : batch),
      record_(kRecordHeaderBytes) {
  std::byte version[4];
  store_be32(version, kTraceVersion);
  out_->write(kTraceMagic, sizeof kTraceMagic);
  out_->write(reinterpret_cast<const char*>(version), sizeof version);
}

TraceWriter::~TraceWriter() { flush(); }

void TraceWriter::write(const FlowSample& sample) {
  encode_sample(sample, record_);
  ++pending_;
  ++samples_written_;
  if (pending_ >= batch_) flush();
}

void TraceWriter::flush() {
  if (pending_ == 0) return;
  const std::uint32_t sequence = sequence_++;
  encode_counters({}, record_);
  store_be32(record_.data(), static_cast<std::uint32_t>(record_.size() - 4));
  encode_header(record_.data() + 4, agent_, sequence, sequence_ * 1000,
                static_cast<std::uint32_t>(pending_));
  out_->write(reinterpret_cast<const char*>(record_.data()),
              static_cast<std::streamsize>(record_.size()));
  record_.resize(kRecordHeaderBytes);
  pending_ = 0;
}

}  // namespace ixp::sflow
