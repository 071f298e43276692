// Differential suite: parse_frame_fast vs parse_frame (DESIGN.md §14).
// The fast decoder must be byte-identical to the layer-by-layer parser
// on every capture — clean builder output, random binary junk, and
// deliberate single-field corruptions that straddle the fast-shape
// boundary (checksum, IHL, EtherType, truncation).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "sflow/fast_parse.hpp"
#include "sflow/frame.hpp"
#include "util/rng.hpp"

namespace ixp::sflow {
namespace {

void expect_same(const SampledFrame& frame, const char* what) {
  const auto slow = parse_frame(frame);
  const auto fast = parse_frame_fast(frame);
  ASSERT_EQ(slow.has_value(), fast.has_value()) << what;
  if (!slow) return;
  EXPECT_EQ(slow->eth.src, fast->eth.src) << what;
  EXPECT_EQ(slow->eth.dst, fast->eth.dst) << what;
  EXPECT_EQ(slow->eth.ether_type, fast->eth.ether_type) << what;
  ASSERT_EQ(slow->is_ipv4(), fast->is_ipv4()) << what;
  if (slow->is_ipv4()) {
    EXPECT_EQ(slow->ip->dscp, fast->ip->dscp) << what;
    EXPECT_EQ(slow->ip->total_length, fast->ip->total_length) << what;
    EXPECT_EQ(slow->ip->identification, fast->ip->identification) << what;
    EXPECT_EQ(slow->ip->ttl, fast->ip->ttl) << what;
    EXPECT_EQ(slow->ip->protocol, fast->ip->protocol) << what;
    EXPECT_EQ(slow->ip->src, fast->ip->src) << what;
    EXPECT_EQ(slow->ip->dst, fast->ip->dst) << what;
  }
  ASSERT_EQ(slow->is_tcp(), fast->is_tcp()) << what;
  if (slow->is_tcp()) {
    EXPECT_EQ(slow->tcp->src_port, fast->tcp->src_port) << what;
    EXPECT_EQ(slow->tcp->dst_port, fast->tcp->dst_port) << what;
    EXPECT_EQ(slow->tcp->seq, fast->tcp->seq) << what;
    EXPECT_EQ(slow->tcp->ack, fast->tcp->ack) << what;
    EXPECT_EQ(slow->tcp->flags, fast->tcp->flags) << what;
    EXPECT_EQ(slow->tcp->window, fast->tcp->window) << what;
  }
  ASSERT_EQ(slow->is_udp(), fast->is_udp()) << what;
  if (slow->is_udp()) {
    EXPECT_EQ(slow->udp->src_port, fast->udp->src_port) << what;
    EXPECT_EQ(slow->udp->dst_port, fast->udp->dst_port) << what;
    EXPECT_EQ(slow->udp->length, fast->udp->length) << what;
  }
  // Payload views must alias the same bytes of the same capture.
  EXPECT_EQ(slow->payload.data(), fast->payload.data()) << what;
  EXPECT_EQ(slow->payload.size(), fast->payload.size()) << what;
}

FrameSpec spec_of(util::Rng& rng) {
  FrameSpec spec;
  spec.src_mac = MacAddr::from_id(rng());
  spec.dst_mac = MacAddr::from_id(rng());
  spec.src_ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  spec.dst_ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  spec.src_port = static_cast<std::uint16_t>(rng());
  spec.dst_port = static_cast<std::uint16_t>(rng());
  return spec;
}

TEST(FastParseDifferential, CleanBuilderFrames) {
  util::Rng rng{11};
  std::byte payload[100];
  for (int i = 0; i < 500; ++i) {
    for (auto& b : payload) b = static_cast<std::byte>(rng());
    const std::size_t len = rng.next_below(sizeof payload + 1);
    const std::size_t total = len + rng.next_below(1200);
    const FrameSpec spec = spec_of(rng);
    expect_same(build_tcp_frame(spec, {payload, len}, total,
                                static_cast<std::uint8_t>(rng())),
                "tcp");
    expect_same(build_udp_frame(spec, {payload, len}, total), "udp");
    expect_same(build_ipv4_frame(spec, IpProto::kIcmp, rng.next_below(500)),
                "icmp");
    expect_same(build_ipv4_frame(spec, IpProto::kGre, rng.next_below(500)),
                "gre");
    expect_same(build_other_frame(spec.src_mac, spec.dst_mac, EtherType::kIpv6,
                                  rng.next_below(200)),
                "ipv6");
    expect_same(build_other_frame(spec.src_mac, spec.dst_mac, EtherType::kArp,
                                  28),
                "arp");
  }
}

TEST(FastParseDifferential, SingleByteCorruptions) {
  // Every header byte of a valid TCP frame, flipped one at a time: the
  // fast-shape gates (EtherType, version/IHL, checksum, data offset)
  // must shunt each mutant to the same verdict the scalar parser gives.
  util::Rng rng{12};
  std::byte payload[64];
  for (auto& b : payload) b = static_cast<std::byte>(rng());
  const SampledFrame clean =
      build_tcp_frame(spec_of(rng), {payload, sizeof payload}, 700);
  for (std::size_t at = 0; at < 54; ++at) {
    for (const std::uint8_t bit : {0x01u, 0x10u, 0x80u}) {
      SampledFrame mutant = clean;
      mutant.data[at] ^= static_cast<std::byte>(bit);
      expect_same(mutant, "bitflip");
    }
  }
}

TEST(FastParseDifferential, TruncatedCaptures) {
  util::Rng rng{13};
  std::byte payload[74];
  for (auto& b : payload) b = static_cast<std::byte>(rng());
  const FrameSpec spec = spec_of(rng);
  for (const SampledFrame& clean :
       {build_tcp_frame(spec, {payload, sizeof payload}, 900),
        build_udp_frame(spec, {payload, sizeof payload}, 900)}) {
    for (std::uint16_t cut = 0; cut <= clean.captured; ++cut) {
      SampledFrame mutant = clean;
      mutant.captured = cut;
      expect_same(mutant, "truncated");
    }
  }
}

TEST(FastParseDifferential, RandomJunkCaptures) {
  util::Rng rng{14};
  for (int i = 0; i < 20000; ++i) {
    SampledFrame frame;
    frame.captured = static_cast<std::uint16_t>(rng.next_below(kCaptureBytes + 1));
    frame.frame_length = static_cast<std::uint16_t>(rng());
    for (std::uint16_t b = 0; b < frame.captured; ++b)
      frame.data[b] = static_cast<std::byte>(rng());
    // Half the trials steer the shape-selection bytes toward the fast
    // lane so the checksum gate sees near-valid headers, not just junk.
    if (i % 2 == 0 && frame.captured >= 15) {
      frame.data[12] = std::byte{0x08};
      frame.data[13] = std::byte{0x00};
      frame.data[14] = std::byte{0x45};
      if (frame.captured >= 24 && i % 4 == 0)
        frame.data[23] = i % 8 == 0 ? std::byte{6} : std::byte{17};  // TCP / UDP
    }
    expect_same(frame, "junk");
  }
}

TEST(FastParseDifferential, IhlWithOptionsTakesSlowLane) {
  // IHL > 5 is outside the fast shape; the fallback must still parse it
  // exactly as parse_frame does (checksum over the longer header).
  util::Rng rng{15};
  std::byte payload[32];
  for (auto& b : payload) b = static_cast<std::byte>(rng());
  SampledFrame frame = build_tcp_frame(spec_of(rng), {payload, sizeof payload}, 400);
  frame.data[14] = std::byte{0x46};  // IHL 6: 24-byte header
  expect_same(frame, "ihl6-bad-checksum");
  // Re-checksum over 24 bytes so the slow lane accepts it.
  frame.data[24] = std::byte{0};
  frame.data[25] = std::byte{0};
  const std::uint16_t sum =
      Ipv4Header::checksum(std::span<const std::byte>{frame.data}.subspan(14, 24));
  frame.data[24] = static_cast<std::byte>(sum >> 8);
  frame.data[25] = static_cast<std::byte>(sum & 0xff);
  expect_same(frame, "ihl6-good-checksum");
}

}  // namespace
}  // namespace ixp::sflow
