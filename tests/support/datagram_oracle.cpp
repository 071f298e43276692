#include "support/datagram_oracle.hpp"

#include <cstring>

namespace ixp::sflow {

bool decode_into_counted(std::span<const std::byte> bytes, Datagram& out) {
  out.samples.clear();
  out.counters.clear();
  const std::byte* const p = bytes.data();
  const std::size_t size = bytes.size();
  if (size < Datagram::kHeaderBytes) return false;
  if (load_be32(p) != Datagram::kVersion) return false;
  out.agent = net::Ipv4Addr{load_be32(p + 4)};
  out.sequence = load_be32(p + 8);
  out.uptime_ms = load_be32(p + 12);
  const std::uint32_t count = load_be32(p + 16);
  std::size_t at = Datagram::kHeaderBytes;

  if (std::uint64_t{count} * 16 > size - at) return false;
  out.samples.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (size - at < 16) {
      out.samples.clear();
      return false;
    }
    FlowSample& sample = out.samples[i];
    sample.sequence = load_be32(p + at);
    sample.source_port = load_be32(p + at + 4);
    sample.sampling_rate = load_be32(p + at + 8);
    sample.frame.frame_length = load_be16(p + at + 12);
    const std::uint16_t captured = load_be16(p + at + 14);
    at += 16;
    if (captured > kCaptureBytes || size - at < captured) {
      out.samples.clear();
      return false;
    }
    sample.frame.captured = captured;
    std::memcpy(sample.frame.data.data(), p + at, captured);
    at += captured;
  }

  if (size - at < 4) {
    out.samples.clear();
    return false;
  }
  const std::uint32_t counter_count = load_be32(p + at);
  at += 4;
  if (std::uint64_t{counter_count} * 36 > size - at) {
    out.samples.clear();
    return false;
  }
  out.counters.resize(counter_count);
  for (std::uint32_t i = 0; i < counter_count; ++i) {
    CounterSample& counter = out.counters[i];
    counter.port = load_be32(p + at);
    counter.in_frames = (std::uint64_t{load_be32(p + at + 4)} << 32) |
                        load_be32(p + at + 8);
    counter.in_bytes = (std::uint64_t{load_be32(p + at + 12)} << 32) |
                       load_be32(p + at + 16);
    counter.out_frames = (std::uint64_t{load_be32(p + at + 20)} << 32) |
                         load_be32(p + at + 24);
    counter.out_bytes = (std::uint64_t{load_be32(p + at + 28)} << 32) |
                        load_be32(p + at + 32);
    at += 36;
  }
  if (at != size) {
    out.samples.clear();
    out.counters.clear();
    return false;
  }
  return true;
}

}  // namespace ixp::sflow
