#include "sflow/trace.hpp"

#include <array>
#include <vector>

namespace ixp::sflow {

namespace {

void put_u32(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> bytes{
      static_cast<char>(v >> 24), static_cast<char>((v >> 16) & 0xff),
      static_cast<char>((v >> 8) & 0xff), static_cast<char>(v & 0xff)};
  out.write(bytes.data(), bytes.size());
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, net::Ipv4Addr agent,
                         std::size_t batch)
    : out_(&out), agent_(agent), batch_(batch == 0 ? 1 : batch) {
  out_->write(kTraceMagic, sizeof kTraceMagic);
  put_u32(*out_, kTraceVersion);
  pending_.agent = agent_;
}

TraceWriter::~TraceWriter() { flush(); }

void TraceWriter::write(const FlowSample& sample) {
  pending_.samples.push_back(sample);
  ++samples_written_;
  if (pending_.samples.size() >= batch_) flush();
}

void TraceWriter::flush() {
  if (pending_.samples.empty()) return;
  pending_.sequence = sequence_++;
  pending_.uptime_ms = sequence_ * 1000;
  const std::vector<std::byte> bytes = encode(pending_);
  put_u32(*out_, static_cast<std::uint32_t>(bytes.size()));
  out_->write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  pending_.samples.clear();
}

}  // namespace ixp::sflow
