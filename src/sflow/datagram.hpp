// sFlow v5-style datagram encoding.
//
// The collector at the IXP receives UDP datagrams, each bundling a batch
// of flow samples (sequence numbers, sampling rate, original frame length,
// and the truncated header bytes). This codec implements the subset of
// the sFlow v5 layout our pipeline uses — enough to serialize a capture
// stream to bytes and recover it intact, with strict bounds checking on
// decode (malformed datagrams are rejected, never over-read).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "sflow/frame.hpp"

namespace ixp::sflow {

/// Big-endian integer loads and stores shared by the codec, the trace
/// writer, the mapped-trace segmenter and the socket intake. Written as
/// byte composition so they are correct on any host endianness and
/// alignment; compilers fold the pattern into a single byte-swapped load
/// or store.
[[nodiscard]] inline std::uint16_t load_be16(const std::byte* p) noexcept {
  return static_cast<std::uint16_t>((std::to_integer<std::uint16_t>(p[0]) << 8) |
                                    std::to_integer<std::uint16_t>(p[1]));
}

[[nodiscard]] inline std::uint32_t load_be32(const std::byte* p) noexcept {
  return (std::to_integer<std::uint32_t>(p[0]) << 24) |
         (std::to_integer<std::uint32_t>(p[1]) << 16) |
         (std::to_integer<std::uint32_t>(p[2]) << 8) |
         std::to_integer<std::uint32_t>(p[3]);
}

inline void store_be16(std::byte* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::byte>(v >> 8);
  p[1] = static_cast<std::byte>(v & 0xff);
}

inline void store_be32(std::byte* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::byte>(v >> 24);
  p[1] = static_cast<std::byte>((v >> 16) & 0xff);
  p[2] = static_cast<std::byte>((v >> 8) & 0xff);
  p[3] = static_cast<std::byte>(v & 0xff);
}

/// One flow sample inside a datagram.
struct FlowSample {
  std::uint32_t sequence = 0;
  std::uint32_t source_port = 0;    // ingress port index on the switch
  std::uint32_t sampling_rate = 0;  // 1-in-N
  SampledFrame frame;
};

/// Interface counters, exported alongside flow samples (sFlow's counter
/// records). These are exact, not sampled: the estimation-accuracy
/// analyses compare sampled estimates against them.
struct CounterSample {
  std::uint32_t port = 0;
  std::uint64_t in_frames = 0;
  std::uint64_t in_bytes = 0;
  std::uint64_t out_frames = 0;
  std::uint64_t out_bytes = 0;

  friend bool operator==(const CounterSample&, const CounterSample&) = default;
};

struct Datagram {
  static constexpr std::uint32_t kVersion = 5;
  /// version | agent | sequence | uptime | nsamples, all u32.
  static constexpr std::size_t kHeaderBytes = 20;

  net::Ipv4Addr agent;       // exporting switch
  std::uint32_t sequence = 0;  // datagram sequence number
  std::uint32_t uptime_ms = 0;
  std::vector<FlowSample> samples;
  std::vector<CounterSample> counters;
};

/// Serializes a datagram; layout (all integers big-endian):
///   u32 version | u32 agent | u32 seq | u32 uptime | u32 nsamples
///   per flow sample:    u32 seq | u32 port | u32 rate | u16 frame_len |
///                       u16 captured | captured bytes
///   then u32 ncounters; per counter sample: u32 port | 4 x u64
/// encode() is the three parts below in that order; TraceWriter builds its
/// records from the same parts without materializing a Datagram.
[[nodiscard]] std::vector<std::byte> encode(const Datagram& datagram);

/// Writes the Datagram::kHeaderBytes header in place at `at`.
void encode_header(std::byte* at, net::Ipv4Addr agent, std::uint32_t sequence,
                   std::uint32_t uptime_ms, std::uint32_t sample_count) noexcept;

/// Appends one flow sample.
void encode_sample(const FlowSample& sample, std::vector<std::byte>& out);

/// Appends the counter count and the counter samples.
void encode_counters(std::span<const CounterSample> counters,
                     std::vector<std::byte>& out);

/// Decodes; nullopt on any truncation, bad version, captured > 128, or
/// trailing garbage.
[[nodiscard]] std::optional<Datagram> decode(std::span<const std::byte> bytes);

/// Allocation-free form of decode(): refills `out`'s sample and counter
/// vectors in place, reusing their capacity across calls — the primitive
/// the trace-replay hot path is built on (one datagram scratch per
/// reader/cursor, zero steady-state heap traffic). Returns false and
/// clears `out`'s vectors on any malformation decode() would reject.
/// Each capture is copied as one fixed kCaptureBytes block whenever
/// `bytes` holds that many past the sample header, and `out`'s sample
/// slots are reused without zeroing, so a frame's `data` past `captured`
/// is unspecified (SampledFrame). No read leaves `bytes`. decode() has
/// the same contract.
[[nodiscard]] bool decode_into(std::span<const std::byte> bytes, Datagram& out);

}  // namespace ixp::sflow
