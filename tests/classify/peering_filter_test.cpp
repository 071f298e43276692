#include "classify/peering_filter.hpp"

#include <gtest/gtest.h>

namespace ixp::classify {
namespace {

using net::Ipv4Addr;
using sflow::MacAddr;

class PeeringFilterTest : public ::testing::Test {
 protected:
  PeeringFilterTest() {
    fabric::Member a;
    a.asn = net::Asn{100};
    ixp_.add_member(a);
    fabric::Member b;
    b.asn = net::Asn{200};
    ixp_.add_member(b);
    fabric::Member late;
    late.asn = net::Asn{300};
    late.join_week = 50;
    ixp_.add_member(late);
  }

  sflow::FlowSample tcp_sample(MacAddr src_mac, MacAddr dst_mac) const {
    sflow::FrameSpec spec;
    spec.src_mac = src_mac;
    spec.dst_mac = dst_mac;
    spec.src_ip = Ipv4Addr{10, 0, 0, 1};
    spec.dst_ip = Ipv4Addr{10, 0, 0, 2};
    spec.src_port = 12345;
    spec.dst_port = 80;
    sflow::FlowSample sample;
    sample.sampling_rate = 16384;
    sample.frame = sflow::build_tcp_frame(spec, {}, 100);
    return sample;
  }

  MacAddr mac(std::uint32_t asn) const {
    return fabric::Ixp::port_mac_for(net::Asn{asn});
  }

  fabric::Ixp ixp_;
  FilterCounters counters_;
};

TEST_F(PeeringFilterTest, MemberToMemberTcpIsPeering) {
  PeeringFilter filter{ixp_, 45};
  const auto result = filter.filter(tcp_sample(mac(100), mac(200)), counters_);
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->frame.is_tcp());
  EXPECT_EQ(counters_.of(TrafficClass::kPeering), 1u);
  EXPECT_GT(result->expanded_bytes, 0.0);
  EXPECT_GT(counters_.tcp_bytes, 0.0);
  EXPECT_EQ(counters_.udp_bytes, 0.0);
}

TEST_F(PeeringFilterTest, NonIpv4Filtered) {
  PeeringFilter filter{ixp_, 45};
  sflow::FlowSample sample;
  sample.sampling_rate = 16384;
  sample.frame = sflow::build_other_frame(mac(100), mac(200),
                                          sflow::EtherType::kIpv6, 100);
  EXPECT_FALSE(filter.filter(sample, counters_));
  EXPECT_EQ(counters_.of(TrafficClass::kNonIpv4), 1u);
}

TEST_F(PeeringFilterTest, NonMemberMacFiltered) {
  PeeringFilter filter{ixp_, 45};
  const auto offsite = MacAddr::from_id(0xBAD);
  EXPECT_FALSE(filter.filter(tcp_sample(offsite, mac(200)), counters_));
  EXPECT_FALSE(filter.filter(tcp_sample(mac(100), offsite), counters_));
  EXPECT_EQ(counters_.of(TrafficClass::kNonMemberOrLocal), 2u);
}

TEST_F(PeeringFilterTest, ManagementTrafficIsLocal) {
  PeeringFilter filter{ixp_, 45};
  EXPECT_FALSE(
      filter.filter(tcp_sample(ixp_.management_mac(), mac(200)), counters_));
  EXPECT_EQ(counters_.of(TrafficClass::kNonMemberOrLocal), 1u);
}

TEST_F(PeeringFilterTest, NotYetJoinedMemberIsNonMember) {
  PeeringFilter early{ixp_, 45};
  EXPECT_FALSE(early.filter(tcp_sample(mac(300), mac(200)), counters_));
  EXPECT_EQ(counters_.of(TrafficClass::kNonMemberOrLocal), 1u);

  PeeringFilter late{ixp_, 50};
  EXPECT_TRUE(late.filter(tcp_sample(mac(300), mac(200)), counters_));
}

TEST_F(PeeringFilterTest, MembershipRespectsJoinWeek) {
  // AS 300 joins in week 50: off the fabric the week before, on it from
  // its join week on. An unknown MAC is never on it.
  const auto peering = [&](int week, MacAddr src) {
    FilterCounters counters;
    const bool kept =
        PeeringFilter{ixp_, week}.filter(tcp_sample(src, mac(200)), counters)
            .has_value();
    EXPECT_EQ(counters.of(kept ? TrafficClass::kPeering
                               : TrafficClass::kNonMemberOrLocal),
              1u);
    return kept;
  };
  EXPECT_TRUE(peering(35, mac(100)));
  EXPECT_FALSE(peering(49, mac(300)));
  EXPECT_TRUE(peering(50, mac(300)));
  EXPECT_TRUE(peering(51, mac(300)));
  EXPECT_FALSE(peering(50, MacAddr::from_id(0xBAD)));
}

TEST_F(PeeringFilterTest, ManagementMacIsNotAMemberPort) {
  // The management MAC is local on either side of a frame, in any week.
  for (const int week : {35, 45, 51}) {
    PeeringFilter filter{ixp_, week};
    EXPECT_FALSE(
        filter.filter(tcp_sample(mac(100), ixp_.management_mac()), counters_));
    EXPECT_FALSE(
        filter.filter(tcp_sample(ixp_.management_mac(), mac(100)), counters_));
  }
  EXPECT_EQ(counters_.of(TrafficClass::kNonMemberOrLocal), 6u);
}

TEST_F(PeeringFilterTest, IcmpFilteredAsNonTcpUdp) {
  PeeringFilter filter{ixp_, 45};
  sflow::FrameSpec spec;
  spec.src_mac = mac(100);
  spec.dst_mac = mac(200);
  spec.src_ip = Ipv4Addr{10, 0, 0, 1};
  spec.dst_ip = Ipv4Addr{10, 0, 0, 2};
  sflow::FlowSample sample;
  sample.sampling_rate = 16384;
  sample.frame = sflow::build_ipv4_frame(spec, sflow::IpProto::kIcmp, 64);
  EXPECT_FALSE(filter.filter(sample, counters_));
  EXPECT_EQ(counters_.of(TrafficClass::kNonTcpUdp), 1u);
}

TEST_F(PeeringFilterTest, ExpandedBytesUseSamplingRate) {
  PeeringFilter filter{ixp_, 45};
  auto sample = tcp_sample(mac(100), mac(200));
  const auto result = filter.filter(sample, counters_);
  ASSERT_TRUE(result);
  EXPECT_DOUBLE_EQ(result->expanded_bytes,
                   static_cast<double>(sample.frame.frame_length) * 16384.0);
}

TEST_F(PeeringFilterTest, UdpCountsTowardsUdpBytes) {
  PeeringFilter filter{ixp_, 45};
  sflow::FrameSpec spec;
  spec.src_mac = mac(100);
  spec.dst_mac = mac(200);
  spec.src_ip = Ipv4Addr{10, 0, 0, 1};
  spec.dst_ip = Ipv4Addr{10, 0, 0, 2};
  spec.src_port = 53;
  spec.dst_port = 33000;
  sflow::FlowSample sample;
  sample.sampling_rate = 16384;
  sample.frame = sflow::build_udp_frame(spec, {}, 200);
  EXPECT_TRUE(filter.filter(sample, counters_));
  EXPECT_GT(counters_.udp_bytes, 0.0);
  EXPECT_EQ(counters_.tcp_bytes, 0.0);
}

TEST_F(PeeringFilterTest, TotalsAddUp) {
  PeeringFilter filter{ixp_, 45};
  (void)filter.filter(tcp_sample(mac(100), mac(200)), counters_);
  (void)filter.filter(tcp_sample(MacAddr::from_id(1), mac(200)), counters_);
  EXPECT_EQ(counters_.total_samples(), 2u);
  EXPECT_GT(counters_.total_bytes(), 0.0);
}

}  // namespace
}  // namespace ixp::classify
