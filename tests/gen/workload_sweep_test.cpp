// Parameterized invariants over every week of the measurement period:
// whatever week is generated, the stream must satisfy the same structural
// properties (Figure-1 shares, parseability, determinism, server-byte
// dominance).
#include <gtest/gtest.h>

#include "gen/internet.hpp"
#include "gen/workload.hpp"

namespace ixp::gen {
namespace {

const InternetModel& model() {
  static const InternetModel instance{ScaleConfig::test()};
  return instance;
}

const Workload& workload() {
  static const Workload instance{model()};
  return instance;
}

class WeekSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(WeekSweepTest, StreamInvariantsHold) {
  const int week = GetParam();
  std::uint64_t samples = 0;
  std::uint64_t member_macs_everywhere = 0;
  const auto on_fabric = [&](sflow::MacAddr mac) {
    const fabric::Member* member = model().ixp().member_by_mac(mac);
    return member != nullptr && member->join_week <= week;
  };
  const auto truth = workload().generate_week(week, [&](const sflow::FlowSample& s) {
    ++samples;
    EXPECT_EQ(s.sampling_rate, sflow::kPaperSamplingRate);
    EXPECT_GT(s.frame.frame_length, 0);
    EXPECT_LE(s.frame.captured, sflow::kCaptureBytes);
    const auto parsed = sflow::parse_frame(s.frame);
    if (parsed && on_fabric(parsed->eth.src) && on_fabric(parsed->eth.dst))
      ++member_macs_everywhere;
  });
  EXPECT_EQ(truth.total_samples, samples);

  // Figure-1 composition per week.
  const double total = static_cast<double>(truth.total_samples);
  EXPECT_GT(truth.peering_samples / total, 0.975);
  EXPECT_LT(truth.non_ipv4_samples / total, 0.01);
  EXPECT_LT(truth.non_member_or_local_samples / total, 0.015);
  EXPECT_LT(truth.non_tcp_udp_samples / total, 0.01);

  // Almost all samples run member-to-member.
  EXPECT_GT(static_cast<double>(member_macs_everywhere) / total, 0.97);

  // Server bytes dominate peering bytes in every week (>70% target, with
  // slack for weekly noise at test scale).
  EXPECT_GT(truth.server_bytes / truth.peering_bytes, 0.55);

  // Active server pool stays within sane bounds of the weekly target.
  EXPECT_GT(truth.active_visible_servers,
            model().config().weekly_server_ips / 3);
  EXPECT_LT(truth.active_visible_servers,
            model().config().weekly_server_ips * 2);
}

TEST_P(WeekSweepTest, RegenerationIsIdentical) {
  const int week = GetParam();
  std::uint64_t sig_a = 0;
  std::uint64_t sig_b = 0;
  std::uint64_t count_a = 0;
  (void)workload().generate_week(week, [&](const sflow::FlowSample& s) {
    if (++count_a % 17 != 0) return;  // hash a deterministic subsample
    sig_a = sig_a * 1099511628211ULL + s.frame.frame_length;
    const auto parsed = sflow::parse_frame(s.frame);
    if (parsed && parsed->ip) sig_a ^= parsed->ip->src.value();
  });
  std::uint64_t count_b = 0;
  (void)workload().generate_week(week, [&](const sflow::FlowSample& s) {
    if (++count_b % 17 != 0) return;
    sig_b = sig_b * 1099511628211ULL + s.frame.frame_length;
    const auto parsed = sflow::parse_frame(s.frame);
    if (parsed && parsed->ip) sig_b ^= parsed->ip->src.value();
  });
  EXPECT_EQ(sig_a, sig_b);
  EXPECT_EQ(count_a, count_b);
}

INSTANTIATE_TEST_SUITE_P(AllWeeks, WeekSweepTest,
                         ::testing::Range(35, 52));  // weeks 35..51

}  // namespace
}  // namespace ixp::gen
