#include "sflow/datagram.hpp"

namespace ixp::sflow {

namespace {

/// Grows `out` by `n` bytes and returns where they start.
std::byte* extend(std::vector<std::byte>& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

/// decode_into's one failure exit: no samples or counters survive it.
bool reject(Datagram& out) {
  out.samples.clear();
  out.counters.clear();
  return false;
}

}  // namespace

void encode_header(std::byte* at, net::Ipv4Addr agent, std::uint32_t sequence,
                   std::uint32_t uptime_ms, std::uint32_t sample_count) noexcept {
  store_be32(at, Datagram::kVersion);
  store_be32(at + 4, agent.value());
  store_be32(at + 8, sequence);
  store_be32(at + 12, uptime_ms);
  store_be32(at + 16, sample_count);
}

void encode_sample(const FlowSample& sample, std::vector<std::byte>& out) {
  const std::uint16_t captured = sample.frame.captured;
  std::byte* const at = extend(out, 16 + std::size_t{captured});
  store_be32(at, sample.sequence);
  store_be32(at + 4, sample.source_port);
  store_be32(at + 8, sample.sampling_rate);
  store_be16(at + 12, sample.frame.frame_length);
  store_be16(at + 14, captured);
  std::memcpy(at + 16, sample.frame.data.data(), captured);
}

void encode_counters(std::span<const CounterSample> counters,
                     std::vector<std::byte>& out) {
  std::byte* at = extend(out, 4 + counters.size() * 36);
  store_be32(at, static_cast<std::uint32_t>(counters.size()));
  at += 4;
  for (const CounterSample& counter : counters) {
    store_be32(at, counter.port);
    const std::uint64_t values[4] = {counter.in_frames, counter.in_bytes,
                                     counter.out_frames, counter.out_bytes};
    for (int i = 0; i < 4; ++i) {
      store_be32(at + 4 + 8 * i, static_cast<std::uint32_t>(values[i] >> 32));
      store_be32(at + 8 + 8 * i, static_cast<std::uint32_t>(values[i] & 0xffffffffu));
    }
    at += 36;
  }
}

std::vector<std::byte> encode(const Datagram& datagram) {
  std::vector<std::byte> out;
  out.reserve(Datagram::kHeaderBytes + datagram.samples.size() * (16 + kCaptureBytes) +
              4 + datagram.counters.size() * 36);
  encode_header(extend(out, Datagram::kHeaderBytes), datagram.agent,
                datagram.sequence, datagram.uptime_ms,
                static_cast<std::uint32_t>(datagram.samples.size()));
  for (const FlowSample& sample : datagram.samples) encode_sample(sample, out);
  encode_counters(datagram.counters, out);
  return out;
}

bool decode_into(std::span<const std::byte> bytes, Datagram& out) {
  const std::byte* const p = bytes.data();
  const std::size_t size = bytes.size();
  if (size < Datagram::kHeaderBytes || load_be32(p) != Datagram::kVersion)
    return reject(out);
  out.agent = net::Ipv4Addr{load_be32(p + 4)};
  out.sequence = load_be32(p + 8);
  out.uptime_ms = load_be32(p + 12);
  const std::uint32_t count = load_be32(p + 16);
  std::size_t at = Datagram::kHeaderBytes;

  // Each sample occupies at least its 16 fixed header bytes, so an
  // implausible count is rejected before any storage is touched.
  if (std::uint64_t{count} * 16 > size - at) return reject(out);
  // Resized in place, not cleared first: a cursor's records mostly hold
  // the same number of samples, so no slot is re-zeroed, and every
  // header field of a slot is rewritten below.
  out.samples.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (size - at < 16) return reject(out);
    FlowSample& sample = out.samples[i];
    sample.sequence = load_be32(p + at);
    sample.source_port = load_be32(p + at + 4);
    sample.sampling_rate = load_be32(p + at + 8);
    sample.frame.frame_length = load_be16(p + at + 12);
    const std::uint16_t captured = load_be16(p + at + 14);
    at += 16;
    if (captured > kCaptureBytes || size - at < captured) return reject(out);
    sample.frame.captured = captured;
    // A fixed-size copy compiles to a few vector moves; a copy of
    // `captured` bytes goes through libc's size dispatch on every sample.
    // So copy the whole block whenever the datagram holds it, and count
    // bytes only near its end (a record's last sample, a short datagram).
    // The bytes past `captured` are then the record's next bytes.
    if (size - at >= kCaptureBytes) {
      std::memcpy(sample.frame.data.data(), p + at, kCaptureBytes);
    } else {
      std::memcpy(sample.frame.data.data(), p + at, captured);
    }
    at += captured;
  }

  if (size - at < 4) return reject(out);
  const std::uint32_t counter_count = load_be32(p + at);
  at += 4;
  if (std::uint64_t{counter_count} * 36 > size - at) return reject(out);
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
  if (at != size) return reject(out);
  return true;
}

std::optional<Datagram> decode(std::span<const std::byte> bytes) {
  Datagram datagram;
  if (!decode_into(bytes, datagram)) return std::nullopt;
  return datagram;
}

}  // namespace ixp::sflow
