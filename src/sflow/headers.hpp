// Wire-format headers: Ethernet, IPv4, TCP, UDP.
//
// sFlow samples are raw Ethernet frames, so the generator must *serialize*
// real headers and the classifier must *parse* them back from the 128-byte
// captures. Serialization is explicit big-endian byte writing — no struct
// punning, no host-endian dependence (Core Guidelines: avoid reinterpret
// casts for I/O).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/ipv4.hpp"

namespace ixp::sflow {

/// A 48-bit IEEE MAC address.
class MacAddr {
 public:
  constexpr MacAddr() = default;
  explicit constexpr MacAddr(std::array<std::uint8_t, 6> octets) noexcept
      : octets_(octets) {}

  /// Deterministically derives a locally-administered unicast MAC from an
  /// integer id (used for IXP member ports).
  [[nodiscard]] static MacAddr from_id(std::uint64_t id) noexcept;

  [[nodiscard]] constexpr const std::array<std::uint8_t, 6>& octets()
      const noexcept {
    return octets_;
  }

  /// The address as a 48-bit integer, first octet most significant: the
  /// key of the fabric's MAC -> member maps and the form the fast-lane
  /// decode (fast_parse.hpp) reads straight off the capture.
  [[nodiscard]] constexpr std::uint64_t key() const noexcept {
    std::uint64_t key = 0;
    for (const std::uint8_t octet : octets_) key = (key << 8) | octet;
    return key;
  }
  [[nodiscard]] static constexpr MacAddr from_key(std::uint64_t key) noexcept {
    std::array<std::uint8_t, 6> octets{};
    for (std::size_t i = 6; i-- > 0; key >>= 8)
      octets[i] = static_cast<std::uint8_t>(key);
    return MacAddr{octets};
  }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const MacAddr&, const MacAddr&) noexcept =
      default;

 private:
  std::array<std::uint8_t, 6> octets_{};
};

enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kIpv6 = 0x86dd,
};

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kIgmp = 2,
  kTcp = 6,
  kUdp = 17,
  kGre = 47,
  kEsp = 50,
  kSctp = 132,
};

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddr dst;
  MacAddr src;
  std::uint16_t ether_type = 0;

  /// Writes exactly kSize bytes; requires out.size() >= kSize.
  void serialize(std::span<std::byte> out) const noexcept;
  [[nodiscard]] static std::optional<EthernetHeader> parse(
      std::span<const std::byte> in) noexcept;
};

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  net::Ipv4Addr src;
  net::Ipv4Addr dst;

  /// Writes exactly kSize bytes with a correct header checksum.
  void serialize(std::span<std::byte> out) const noexcept;

  /// Parses and *verifies the checksum*; returns nullopt on any
  /// malformation (short buffer, version != 4, bad checksum).
  [[nodiscard]] static std::optional<Ipv4Header> parse(
      std::span<const std::byte> in) noexcept;

  /// RFC 1071 ones-complement checksum of a 20-byte header image whose
  /// checksum field is zero.
  [[nodiscard]] static std::uint16_t checksum(
      std::span<const std::byte> header) noexcept;
};

struct TcpHeader {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;  // CWR|ECE|URG|ACK|PSH|RST|SYN|FIN
  std::uint16_t window = 65535;

  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;

  void serialize(std::span<std::byte> out) const noexcept;
  [[nodiscard]] static std::optional<TcpHeader> parse(
      std::span<const std::byte> in) noexcept;
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload

  void serialize(std::span<std::byte> out) const noexcept;
  [[nodiscard]] static std::optional<UdpHeader> parse(
      std::span<const std::byte> in) noexcept;
};

}  // namespace ixp::sflow
