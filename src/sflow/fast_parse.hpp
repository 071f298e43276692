// Lane-wise fast decode of sampled frames (DESIGN.md §14.4).
//
// parse_frame() recovers the layered view one header at a time through
// per-field optional parsing — the right shape for correctness, but on
// the peering hot path >98% of captures share a single layout:
// Ethernet + IPv4 with ihl=5 + TCP or UDP. decode_lane() is the one gate
// and fixed-offset decode of that layout: the IPv4 checksum as five
// 32-bit lane sums folded once (an RFC 1071 ones-complement sum is
// byte-order independent for the ==0 validity check), MACs, addresses,
// ports and lengths as direct big-endian loads at fixed offsets. It has
// two consumers: parse_frame_fast(), which builds a ParsedFrame from the
// lane, and classify::PeeringFilter::stage(), which writes the lane
// straight into a FrameBatch. Any frame outside the fast shape — short
// capture, non-IPv4 EtherType, IP options, bad checksum — is handed to
// parse_frame() unchanged, so the two entry points are byte-identical by
// construction on the slow lane and held identical on the fast lane by a
// differential fuzz suite (tests/sflow/fast_parse_test.cpp) over clean
// and fault-injected captures.
#pragma once

#include <cstring>
#include <optional>

#include "sflow/datagram.hpp"
#include "sflow/frame.hpp"

namespace ixp::sflow {

/// The fixed-offset fields of a fast-shape capture: Ethernet II + IPv4
/// with IHL 5 and a valid header checksum.
struct FrameLane {
  static constexpr std::size_t kIpAt = EthernetHeader::kSize;      // 14
  static constexpr std::size_t kL4At = kIpAt + Ipv4Header::kSize;  // 34

  std::uint64_t dst_mac = 0;  // MacAddr::key()
  std::uint64_t src_mac = 0;
  net::Ipv4Addr src_ip;
  net::Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;  // set when tcp or udp
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;
  /// A TCP header fits the capture with data offset >= 5, or a UDP
  /// header fits with length >= 8: parse_frame's acceptance rules.
  bool tcp = false;
  bool udp = false;
  /// Capture offset of the transport payload, when tcp or udp.
  std::uint8_t payload_at = 0;
};

namespace lane_detail {

inline std::uint64_t load_be48(const std::byte* p) noexcept {
  return (std::uint64_t{load_be16(p)} << 32) | load_be32(p + 2);
}

/// RFC 1071 validity check over the fixed 20-byte header, summed as five
/// 32-bit lanes in native byte order. The ones-complement sum commutes
/// with byte swapping (end-around carry makes the sum rotation
/// invariant), so "folds to 0xFFFF" holds in either byte order exactly
/// when the big-endian word sum does — the wide loads need no bswap.
inline bool ipv4_checksum_ok(const std::byte* p) noexcept {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < Ipv4Header::kSize; i += 4) {
    std::uint32_t lane;
    std::memcpy(&lane, p + i, sizeof lane);
    sum += lane;
  }
  sum = (sum & 0xffffffffu) + (sum >> 32);
  sum = (sum & 0xffffu) + (sum >> 16);
  sum = (sum & 0xffffu) + (sum >> 16);
  return sum == 0xffffu;
}

}  // namespace lane_detail

/// Decodes `frame` when it has the fast shape, and returns nullopt
/// otherwise — including IHL > 5 and checksum failures, which the scalar
/// parser classifies rather than rejects.
[[nodiscard]] inline std::optional<FrameLane> decode_lane(
    const SampledFrame& frame) noexcept {
  constexpr std::size_t kIpAt = FrameLane::kIpAt;
  constexpr std::size_t kL4At = FrameLane::kL4At;
  const std::size_t captured = frame.captured;
  const std::byte* p = frame.data.data();
  if (captured < kL4At ||
      load_be16(p + 12) != static_cast<std::uint16_t>(EtherType::kIpv4) ||
      std::to_integer<std::uint8_t>(p[kIpAt]) != 0x45 ||
      !lane_detail::ipv4_checksum_ok(p + kIpAt))
    return std::nullopt;

  FrameLane lane;
  lane.dst_mac = lane_detail::load_be48(p);
  lane.src_mac = lane_detail::load_be48(p + 6);
  lane.protocol = std::to_integer<std::uint8_t>(p[kIpAt + 9]);
  lane.src_ip = net::Ipv4Addr{load_be32(p + kIpAt + 12)};
  lane.dst_ip = net::Ipv4Addr{load_be32(p + kIpAt + 16)};

  const std::size_t l4 = captured - kL4At;
  if (lane.protocol == static_cast<std::uint8_t>(IpProto::kTcp) &&
      l4 >= TcpHeader::kSize &&
      (std::to_integer<std::uint8_t>(p[kL4At + 12]) >> 4) >= 5) {
    lane.tcp = true;
    lane.payload_at = kL4At + TcpHeader::kSize;
  } else if (lane.protocol == static_cast<std::uint8_t>(IpProto::kUdp) &&
             l4 >= UdpHeader::kSize &&
             load_be16(p + kL4At + 4) >= UdpHeader::kSize) {
    lane.udp = true;
    lane.payload_at = kL4At + UdpHeader::kSize;
  }
  if (lane.tcp || lane.udp) {
    lane.src_port = load_be16(p + kL4At);
    lane.dst_port = load_be16(p + kL4At + 2);
  }
  return lane;
}

/// Drop-in replacement for parse_frame(); same contract, same results.
[[nodiscard]] std::optional<ParsedFrame> parse_frame_fast(
    const SampledFrame& frame);

}  // namespace ixp::sflow
