// The Figure-1 filter cascade.
//
// "After removing from the overall traffic, in succession, all non-IPv4
// traffic (~0.4%), all traffic that is either not member-to-member or
// stays local (~0.6%), all member-to-member IPv4 traffic that is not TCP
// or UDP (<0.5%), this peering traffic makes up more than 98.5% of the
// total traffic."
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "fabric/ixp.hpp"
#include "sflow/datagram.hpp"
#include "sflow/frame.hpp"
#include "util/flat_hash_map.hpp"

namespace ixp::classify {

class FrameBatch;

enum class TrafficClass : std::uint8_t {
  kNonIpv4,          // native IPv6, ARP, ...
  kNonMemberOrLocal, // not member-to-member, or IXP management traffic
  kNonTcpUdp,        // member-to-member IPv4, but ICMP/GRE/...
  kPeering,          // the traffic all analyses run on
};

/// Sample and (expanded) byte tallies per class, plus the TCP/UDP split
/// of the surviving peering traffic.
///
/// Byte tallies are kept in integer units: expanded bytes are always
/// frame_length x sampling_rate, an exact integer, so accumulating them
/// in std::uint64_t makes merge() associative AND commutative — the
/// foundation of the parallel engine's determinism contract (any shard
/// split of a week reduces to bit-identical counters).
struct FilterCounters {
  std::uint64_t samples[4] = {0, 0, 0, 0};
  std::uint64_t bytes[4] = {0, 0, 0, 0};
  std::uint64_t tcp_bytes = 0;
  std::uint64_t udp_bytes = 0;

  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return samples[0] + samples[1] + samples[2] + samples[3];
  }
  [[nodiscard]] double total_bytes() const noexcept {
    return static_cast<double>(bytes[0] + bytes[1] + bytes[2] + bytes[3]);
  }
  [[nodiscard]] std::uint64_t of(TrafficClass c) const noexcept {
    return samples[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double bytes_of(TrafficClass c) const noexcept {
    return static_cast<double>(bytes[static_cast<std::size_t>(c)]);
  }

  /// Adds another shard's tallies; associative and commutative.
  void merge(const FilterCounters& other) noexcept {
    for (std::size_t i = 0; i < 4; ++i) {
      samples[i] += other.samples[i];
      bytes[i] += other.bytes[i];
    }
    tcp_bytes += other.tcp_bytes;
    udp_bytes += other.udp_bytes;
  }

  friend bool operator==(const FilterCounters&, const FilterCounters&) = default;
};

/// Classification result for one sample that survived to peering.
struct PeeringSample {
  sflow::ParsedFrame frame;
  std::uint64_t expanded_bytes = 0;  // frame_length x sampling rate (exact)
  /// Global position of the sample in the week's stream. Used to keep
  /// first-seen tie-breaks (Host-header caps) deterministic under any
  /// shard split; callers that never shard may leave it 0.
  std::uint64_t seq = 0;
};

class PeeringFilter {
 public:
  /// `week` selects which members are on the fabric: those whose join
  /// week is <= `week`.
  PeeringFilter(const fabric::Ixp& ixp, int week);

  /// Classifies one sample, updates `counters`, and returns the parsed
  /// frame when (and only when) it is peering traffic.
  std::optional<PeeringSample> filter(const sflow::FlowSample& sample,
                                      FilterCounters& counters) const;

  /// Classifies a batch occupying stream positions [first_seq, first_seq
  /// + batch.size()) and appends its peering survivors to `out`, with the
  /// same counters and the same FrameBatch rows as filter() + push() per
  /// sample. Fast-shape frames (sflow::decode_lane) go from their fixed
  /// offsets straight into `out`; every other frame is parsed by
  /// sflow::parse_frame and takes filter()'s cascade.
  void stage(std::span<const sflow::FlowSample> batch, std::uint64_t first_seq,
             FilterCounters& counters, FrameBatch& out) const;

  [[nodiscard]] int week() const noexcept { return week_; }

 private:
  /// The whole cascade for a parsed frame (nullopt: unparsable): counts
  /// it in its class and returns it when it is peering traffic. filter()
  /// and stage()'s off-lane branch share it.
  std::optional<PeeringSample> keep_parsed(
      const std::optional<sflow::ParsedFrame>& parsed, std::uint64_t expanded,
      FilterCounters& counters) const;

  /// Steps 2 and 3 of the cascade for an IPv4 frame, on its MacAddr::key()s
  /// and transport validity: counts the frame in its class and returns
  /// true when it is peering traffic.
  bool keep_ipv4(std::uint64_t src_mac, std::uint64_t dst_mac, bool tcp,
                 bool udp, std::uint64_t expanded,
                 FilterCounters& counters) const;

  int week_;
  std::uint64_t management_;
  /// Port MAC keys of the members on the fabric in week_ (value unused).
  util::FlatHashMap<std::uint64_t, bool> on_fabric_;
};

}  // namespace ixp::classify
