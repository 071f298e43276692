// Sampled-frame captures.
//
// sFlow "captures the first 128 bytes of each sampled frame. This implies
// that in the case of IPv4 packets the available information consists of
// the full IP and transport layer headers and 74 and 86 bytes of TCP and
// UDP payload, respectively" (§2.1). SampledFrame is that 128-byte
// capture; builders compose real headers + payload into it, and
// parse_frame() recovers the layered view the classifier consumes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "sflow/headers.hpp"

namespace ixp::sflow {

/// Maximum bytes captured from each sampled frame.
inline constexpr std::size_t kCaptureBytes = 128;

/// Captured TCP payload bytes: 128 - 14 (eth) - 20 (ip) - 20 (tcp).
inline constexpr std::size_t kTcpPayloadCapture = 74;
/// Captured UDP payload bytes: 128 - 14 (eth) - 20 (ip) - 8 (udp).
inline constexpr std::size_t kUdpPayloadCapture = 86;

/// Only the first `captured` bytes of `data` are the capture. After a
/// decode_into() the rest are unspecified: the record bytes that followed
/// the capture, or what the buffer held before. Read through bytes(), or
/// check `captured` before reading `data` directly.
struct SampledFrame {
  std::array<std::byte, kCaptureBytes> data{};
  std::uint16_t captured = 0;      // valid bytes in `data`
  std::uint16_t frame_length = 0;  // original on-the-wire frame length

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return std::span<const std::byte>{data}.first(captured);
  }
};

/// Common parameters for building IPv4 frames.
struct FrameSpec {
  MacAddr src_mac;
  MacAddr dst_mac;
  net::Ipv4Addr src_ip;
  net::Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t ttl = 64;
  /// Original wire length of the whole frame. When 0, computed from the
  /// headers plus the full (uncaptured) payload length.
  std::uint16_t frame_length = 0;
};

/// Builds a TCP/IPv4 frame capture. Only the first kTcpPayloadCapture
/// payload bytes fit in the capture; `payload_total` is the packet's true
/// payload size used for the length fields.
[[nodiscard]] SampledFrame build_tcp_frame(const FrameSpec& spec,
                                           std::span<const std::byte> payload,
                                           std::size_t payload_total,
                                           std::uint8_t tcp_flags = TcpHeader::kAck);

/// Builds a UDP/IPv4 frame capture.
[[nodiscard]] SampledFrame build_udp_frame(const FrameSpec& spec,
                                           std::span<const std::byte> payload,
                                           std::size_t payload_total);

/// Builds an IPv4 frame of an arbitrary transport protocol (ICMP, GRE, ...).
[[nodiscard]] SampledFrame build_ipv4_frame(const FrameSpec& spec,
                                            IpProto protocol,
                                            std::size_t l4_total);

/// Builds a non-IPv4 frame (IPv6, ARP, ...): opaque body after Ethernet.
[[nodiscard]] SampledFrame build_other_frame(MacAddr src_mac, MacAddr dst_mac,
                                             EtherType type,
                                             std::size_t body_length);

/// Layered view of a parsed capture. `payload` views into the capture
/// buffer that was passed to parse_frame and shares its lifetime.
struct ParsedFrame {
  EthernetHeader eth;
  std::optional<Ipv4Header> ip;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::span<const std::byte> payload;

  [[nodiscard]] bool is_ipv4() const noexcept { return ip.has_value(); }
  [[nodiscard]] bool is_tcp() const noexcept { return tcp.has_value(); }
  [[nodiscard]] bool is_udp() const noexcept { return udp.has_value(); }
};

/// Parses a capture down to transport + payload. Returns nullopt only when
/// even the Ethernet header is short; deeper malformations simply leave
/// the corresponding optional empty (exactly what a dissector sees).
[[nodiscard]] std::optional<ParsedFrame> parse_frame(const SampledFrame& frame);

}  // namespace ixp::sflow
