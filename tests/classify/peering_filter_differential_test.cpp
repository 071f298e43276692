// Differential suite: PeeringFilter::stage against the per-sample path.
//
// stage() decodes fast-shape frames from their fixed offsets straight
// into a FrameBatch and sends every other frame through filter(). It must
// produce exactly what per-sample filter() + FrameBatch::push produce:
// the same FilterCounters and, row for row, the same FrameBatch arrays,
// host views aliasing the same capture bytes. Both are also held to a
// scalar cascade that shares neither the fast-lane gate nor the filter's
// member set: parse_frame() and the fabric's own MAC -> member lookup.
// Inputs are a generated week cut at several batch sizes and the
// mutation families of fast_parse_test.cpp on member-to-member frames,
// plus the member and transport cases the cascade distinguishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "classify/frame_batch.hpp"
#include "classify/peering_filter.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "util/rng.hpp"

namespace ixp::classify {
namespace {

using sflow::FlowSample;
using sflow::MacAddr;
using sflow::SampledFrame;

constexpr std::array<TrafficClass, 4> kClasses{
    TrafficClass::kNonIpv4, TrafficClass::kNonMemberOrLocal,
    TrafficClass::kNonTcpUdp, TrafficClass::kPeering};

/// The Figure-1 cascade on the scalar parser and Ixp::member_by_mac.
std::optional<PeeringSample> scalar_cascade(const fabric::Ixp& ixp, int week,
                                            const FlowSample& sample,
                                            FilterCounters& counters) {
  const std::uint64_t expanded =
      std::uint64_t{sample.frame.frame_length} * sample.sampling_rate;
  const auto classify = [&](TrafficClass c) {
    counters.samples[static_cast<std::size_t>(c)] += 1;
    counters.bytes[static_cast<std::size_t>(c)] += expanded;
  };
  const auto parsed = sflow::parse_frame(sample.frame);
  if (!parsed || !parsed->is_ipv4()) {
    classify(TrafficClass::kNonIpv4);
    return std::nullopt;
  }
  const auto on_fabric = [&](MacAddr mac) {
    const fabric::Member* member = ixp.member_by_mac(mac);
    return mac != ixp.management_mac() && member != nullptr &&
           member->join_week <= week;
  };
  if (!on_fabric(parsed->eth.src) || !on_fabric(parsed->eth.dst)) {
    classify(TrafficClass::kNonMemberOrLocal);
    return std::nullopt;
  }
  if (!parsed->is_tcp() && !parsed->is_udp()) {
    classify(TrafficClass::kNonTcpUdp);
    return std::nullopt;
  }
  classify(TrafficClass::kPeering);
  (parsed->is_tcp() ? counters.tcp_bytes : counters.udp_bytes) += expanded;
  return PeeringSample{*parsed, expanded};
}

/// Fails at the first row where the two batches differ.
void expect_same_rows(const FrameBatch& got, const FrameBatch& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same =
        got.src()[i] == want.src()[i] && got.dst()[i] == want.dst()[i] &&
        got.src_port()[i] == want.src_port()[i] &&
        got.dst_port()[i] == want.dst_port()[i] &&
        got.tcp()[i] == want.tcp()[i] && got.bytes()[i] == want.bytes()[i] &&
        got.seq()[i] == want.seq()[i] &&
        got.indication()[i] == want.indication()[i] &&
        got.host()[i].data() == want.host()[i].data() &&
        got.host()[i].size() == want.host()[i].size();
    ASSERT_TRUE(same) << what << ": row " << i << " (seq " << want.seq()[i]
                      << ")";
  }
}

/// Runs `stream` through stage() in `batch_size` cuts and through both
/// per-sample references, comparing every cut's batch and the counters.
/// Returns stage()'s counters.
FilterCounters expect_stage_matches(const fabric::Ixp& ixp, int week,
                                    std::span<const FlowSample> stream,
                                    std::size_t batch_size) {
  SCOPED_TRACE("week " + std::to_string(week) + ", batch size " +
               std::to_string(batch_size));
  const PeeringFilter filter{ixp, week};
  FilterCounters staged_counters;
  FilterCounters filtered_counters;
  FilterCounters scalar_counters;
  FrameBatch staged;
  FrameBatch filtered;
  FrameBatch scalar;
  for (std::size_t at = 0; at < stream.size(); at += batch_size) {
    const auto cut =
        stream.subspan(at, std::min(batch_size, stream.size() - at));
    staged.clear();
    filtered.clear();
    scalar.clear();
    filter.stage(cut, at, staged_counters, staged);
    for (std::size_t i = 0; i < cut.size(); ++i) {
      if (auto peering = filter.filter(cut[i], filtered_counters)) {
        peering->seq = at + i;
        filtered.push(*peering);
      }
      if (auto peering = scalar_cascade(ixp, week, cut[i], scalar_counters)) {
        peering->seq = at + i;
        scalar.push(*peering);
      }
    }
    expect_same_rows(staged, filtered, "stage vs filter + push");
    expect_same_rows(staged, scalar, "stage vs scalar cascade + push");
    if (::testing::Test::HasFailure()) return staged_counters;
  }
  EXPECT_EQ(staged_counters, filtered_counters);
  EXPECT_EQ(staged_counters, scalar_counters);
  return staged_counters;
}

/// A fabric of two founding members and one that joins in week 50, and
/// member-to-member captures carrying an HTTP request.
class PeeringFilterDifferential : public ::testing::Test {
 protected:
  static constexpr int kJoinWeek = 50;

  PeeringFilterDifferential() {
    for (const auto& [asn, join] : {std::pair{100u, 0}, std::pair{200u, 0},
                                    std::pair{300u, kJoinWeek}}) {
      fabric::Member member;
      member.asn = net::Asn{asn};
      member.join_week = join;
      ixp_.add_member(member);
    }
    const std::string http =
        "GET /index.html HTTP/1.1\r\nHost: www.example.com\r\nAccept: */*\r\n";
    payload_.resize(http.size());
    std::memcpy(payload_.data(), http.data(), http.size());
  }

  static MacAddr mac(std::uint32_t asn) {
    return fabric::Ixp::port_mac_for(net::Asn{asn});
  }

  sflow::FrameSpec spec(MacAddr src, MacAddr dst) const {
    sflow::FrameSpec spec;
    spec.src_mac = src;
    spec.dst_mac = dst;
    spec.src_ip = net::Ipv4Addr{10, 0, 0, 1};
    spec.dst_ip = net::Ipv4Addr{10, 0, 0, 2};
    spec.src_port = 43210;
    spec.dst_port = 80;
    return spec;
  }
  FlowSample sample_of(const SampledFrame& frame) const {
    FlowSample sample;
    sample.sampling_rate = 16384;
    sample.frame = frame;
    return sample;
  }
  FlowSample tcp(MacAddr src = mac(100), MacAddr dst = mac(200)) const {
    return sample_of(sflow::build_tcp_frame(spec(src, dst), payload_, 700));
  }
  FlowSample udp(MacAddr src = mac(100), MacAddr dst = mac(200)) const {
    return sample_of(sflow::build_udp_frame(spec(src, dst), payload_, 700));
  }

  /// The one class a single sample is staged into (checked against the
  /// references too).
  TrafficClass staged_class(int week, const FlowSample& sample) const {
    const FilterCounters counters =
        expect_stage_matches(ixp_, week, {&sample, 1}, 1);
    for (const TrafficClass c : kClasses)
      if (counters.of(c) == 1) return c;
    ADD_FAILURE() << "sample not counted exactly once";
    return TrafficClass::kNonIpv4;
  }

  fabric::Ixp ixp_;
  std::vector<std::byte> payload_;
};

TEST_F(PeeringFilterDifferential, GeneratedWeekAtEveryBatchSize) {
  constexpr int kWeek = 45;
  const gen::InternetModel model{gen::ScaleConfig::test()};
  const gen::Workload workload{model};
  std::vector<FlowSample> stream;
  workload.generate_week(
      kWeek, [&](const FlowSample& s) { stream.push_back(s); });
  ASSERT_FALSE(stream.empty());
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{512}, stream.size()}) {
    const FilterCounters counters =
        expect_stage_matches(model.ixp(), kWeek, stream, batch_size);
    ASSERT_FALSE(HasFailure());
    // The week reaches every class of the cascade.
    for (const TrafficClass c : kClasses) EXPECT_GT(counters.of(c), 0u);
    EXPECT_GT(counters.tcp_bytes, 0u);
    EXPECT_GT(counters.udp_bytes, 0u);
  }
}

TEST_F(PeeringFilterDifferential, SingleByteCorruptions) {
  // Every header byte of a member-to-member TCP and UDP capture, flipped
  // one bit at a time, in one stream and one sample per batch.
  std::vector<FlowSample> stream;
  for (const FlowSample& clean : {tcp(), udp()}) {
    stream.push_back(clean);
    for (std::size_t at = 0; at < 54; ++at) {
      for (const std::uint8_t bit : {0x01u, 0x10u, 0x80u}) {
        FlowSample mutant = clean;
        mutant.frame.data[at] ^= static_cast<std::byte>(bit);
        stream.push_back(mutant);
      }
    }
  }
  for (const std::size_t batch_size : {std::size_t{1}, stream.size()})
    expect_stage_matches(ixp_, 45, stream, batch_size);
}

TEST_F(PeeringFilterDifferential, TruncatedCaptures) {
  std::vector<FlowSample> stream;
  for (const FlowSample& clean : {tcp(), udp()}) {
    for (std::uint16_t cut = 0; cut <= clean.frame.captured; ++cut) {
      FlowSample mutant = clean;
      mutant.frame.captured = cut;
      stream.push_back(mutant);
    }
  }
  expect_stage_matches(ixp_, 45, stream, 7);
}

TEST_F(PeeringFilterDifferential, JunkSteeredTowardTheFastLane) {
  // Random captures; most get the fast shape's EtherType and 0x45, half
  // of those member MACs, and half of those a valid checksum, so random
  // transport bytes (data offsets, UDP lengths, protocols) reach the
  // cascade's later steps.
  util::Rng rng{21};
  const std::array<MacAddr, 4> macs{mac(100), mac(200), mac(300),
                                    ixp_.management_mac()};
  std::vector<FlowSample> stream;
  for (int i = 0; i < 20000; ++i) {
    FlowSample sample;
    sample.sampling_rate = static_cast<std::uint32_t>(rng.next_below(1u << 20));
    SampledFrame& frame = sample.frame;
    frame.captured =
        static_cast<std::uint16_t>(rng.next_below(sflow::kCaptureBytes + 1));
    frame.frame_length = static_cast<std::uint16_t>(rng());
    for (std::uint16_t b = 0; b < frame.captured; ++b)
      frame.data[b] = static_cast<std::byte>(rng());
    if (i % 4 != 3 && frame.captured >= 15) {
      frame.data[12] = std::byte{0x08};
      frame.data[13] = std::byte{0x00};
      frame.data[14] = std::byte{0x45};
      if (i % 2 == 0) {
        for (const std::size_t at : {std::size_t{0}, std::size_t{6}}) {
          const auto& octets = macs[rng.next_below(macs.size())].octets();
          for (std::size_t k = 0; k < 6; ++k)
            frame.data[at + k] = static_cast<std::byte>(octets[k]);
        }
      }
      if (frame.captured >= 24 && i % 3 != 0)
        frame.data[23] = static_cast<std::byte>(
            i % 6 == 1   ? sflow::IpProto::kTcp
            : i % 6 == 2 ? sflow::IpProto::kUdp
                         : sflow::IpProto::kIcmp);
      if (frame.captured >= 34 && i % 4 < 2) {
        frame.data[24] = std::byte{0};
        frame.data[25] = std::byte{0};
        const std::uint16_t sum = sflow::Ipv4Header::checksum(
            std::span<const std::byte>{frame.data}.subspan(14, 20));
        frame.data[24] = static_cast<std::byte>(sum >> 8);
        frame.data[25] = static_cast<std::byte>(sum & 0xff);
      }
    }
    stream.push_back(sample);
  }
  const FilterCounters counters = expect_stage_matches(ixp_, 45, stream, 512);
  EXPECT_GT(counters.of(TrafficClass::kPeering), 0u);
  EXPECT_GT(counters.of(TrafficClass::kNonTcpUdp), 0u);
}

TEST_F(PeeringFilterDifferential, MemberCases) {
  const MacAddr management = ixp_.management_mac();
  const MacAddr stranger = MacAddr::from_id(0xBAD);
  EXPECT_EQ(staged_class(45, tcp()), TrafficClass::kPeering);
  EXPECT_EQ(staged_class(45, udp()), TrafficClass::kPeering);
  for (const FlowSample& local :
       {tcp(management, mac(200)), tcp(mac(100), management),
        udp(management, mac(200)), udp(mac(100), management),
        tcp(stranger, mac(200)), tcp(mac(100), stranger)})
    EXPECT_EQ(staged_class(45, local), TrafficClass::kNonMemberOrLocal);

  // AS 300 is filtered the week before its join and kept from it on.
  EXPECT_EQ(staged_class(kJoinWeek - 1, tcp(mac(300), mac(100))),
            TrafficClass::kNonMemberOrLocal);
  EXPECT_EQ(staged_class(kJoinWeek - 1, udp(mac(100), mac(300))),
            TrafficClass::kNonMemberOrLocal);
  EXPECT_EQ(staged_class(kJoinWeek, tcp(mac(300), mac(100))),
            TrafficClass::kPeering);
  EXPECT_EQ(staged_class(kJoinWeek, udp(mac(100), mac(300))),
            TrafficClass::kPeering);

  // A TCP data offset below 5 and a UDP length below 8 leave no
  // transport header; ICMP and GRE never have one.
  FlowSample short_offset = tcp();
  short_offset.frame.data[46] = std::byte{0x40};
  EXPECT_EQ(staged_class(45, short_offset), TrafficClass::kNonTcpUdp);
  FlowSample short_length = udp();
  short_length.frame.data[38] = std::byte{0};
  short_length.frame.data[39] = std::byte{7};
  EXPECT_EQ(staged_class(45, short_length), TrafficClass::kNonTcpUdp);
  for (const auto proto : {sflow::IpProto::kIcmp, sflow::IpProto::kGre})
    EXPECT_EQ(staged_class(45, sample_of(sflow::build_ipv4_frame(
                                   spec(mac(100), mac(200)), proto, 64))),
              TrafficClass::kNonTcpUdp);
}

}  // namespace
}  // namespace ixp::classify
