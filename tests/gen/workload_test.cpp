#include "gen/workload.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "gen/isp_observer.hpp"
#include "stream_pins.hpp"

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

TEST(Workload, GenerationIsDeterministic) {
  std::vector<std::uint16_t> lengths_a;
  std::vector<std::uint16_t> lengths_b;
  (void)workload().generate_week(40, [&](const sflow::FlowSample& s) {
    if (lengths_a.size() < 5000) lengths_a.push_back(s.frame.frame_length);
  });
  (void)workload().generate_week(40, [&](const sflow::FlowSample& s) {
    if (lengths_b.size() < 5000) lengths_b.push_back(s.frame.frame_length);
  });
  EXPECT_EQ(lengths_a, lengths_b);
}

TEST(Workload, DifferentWeeksDiffer) {
  std::uint64_t sig_a = 0;
  std::uint64_t sig_b = 0;
  (void)workload().generate_week(40, [&](const sflow::FlowSample& s) {
    sig_a = sig_a * 31 + s.frame.frame_length;
  });
  (void)workload().generate_week(41, [&](const sflow::FlowSample& s) {
    sig_b = sig_b * 31 + s.frame.frame_length;
  });
  EXPECT_NE(sig_a, sig_b);
}

TEST(Workload, TruthAccountingConsistent) {
  std::uint64_t count = 0;
  const auto truth =
      workload().generate_week(45, [&](const sflow::FlowSample&) { ++count; });
  EXPECT_EQ(truth.total_samples, count);
  EXPECT_EQ(truth.total_samples,
            truth.peering_samples + truth.non_ipv4_samples +
                truth.non_member_or_local_samples + truth.non_tcp_udp_samples);
  EXPECT_NEAR(truth.tcp_bytes + truth.udp_bytes, truth.peering_bytes, 1.0);
  EXPECT_GT(truth.server_bytes, 0.5 * truth.peering_bytes);
  EXPECT_GT(truth.active_visible_servers, 0u);
}

TEST(Workload, CategorySharesMatchFigure1) {
  const auto truth = workload().generate_week(45, [](const sflow::FlowSample&) {});
  const double total = static_cast<double>(truth.total_samples);
  EXPECT_NEAR(static_cast<double>(truth.non_ipv4_samples) / total, 0.004, 0.002);
  EXPECT_NEAR(static_cast<double>(truth.non_member_or_local_samples) / total,
              0.006, 0.003);
  EXPECT_NEAR(static_cast<double>(truth.non_tcp_udp_samples) / total, 0.0045,
              0.002);
  EXPECT_GT(static_cast<double>(truth.peering_samples) / total, 0.98);
}

TEST(Workload, TrafficGrowsAcrossPeriod) {
  const auto w35 = workload().generate_week(35, [](const sflow::FlowSample&) {});
  const auto w51 = workload().generate_week(51, [](const sflow::FlowSample&) {});
  EXPECT_GT(w51.total_samples, w35.total_samples);
  // Paper: 11.9 -> 14.5 PB/day, about +22%.
  const double growth = static_cast<double>(w51.total_samples) /
                        static_cast<double>(w35.total_samples);
  EXPECT_NEAR(growth, 1.22, 0.06);
}

TEST(Workload, ActiveServersAllVisible) {
  const auto active = workload().active_visible_servers(45);
  for (const std::uint32_t s : active) {
    EXPECT_TRUE(model().servers()[s].visible());
    EXPECT_TRUE(model().server_active(s, 45));
  }
}

TEST(Workload, SamplesAreParseable) {
  std::uint64_t parsed_count = 0;
  std::uint64_t total = 0;
  (void)workload().generate_week(45, [&](const sflow::FlowSample& s) {
    ++total;
    if (sflow::parse_frame(s.frame)) ++parsed_count;
  });
  EXPECT_EQ(parsed_count, total);  // every capture parses at least Ethernet
}

TEST(Workload, SamplingRateIsPaperRate) {
  bool checked = false;
  (void)workload().generate_week(45, [&](const sflow::FlowSample& s) {
    if (!checked) {
      EXPECT_EQ(s.sampling_rate, sflow::kPaperSamplingRate);
      checked = true;
    }
  });
  EXPECT_TRUE(checked);
}

// The generated stream is a contract: the lookup tables behind the draws
// may change, the bytes may not. These hashes were computed on the
// generator as it stood before its per-week entry-port table, client
// table and packed alias slots were introduced. Weeks 35 and 51 bracket
// the member joins, so they cover ASes whose entry member has not joined
// yet and falls back to a transit port.
TEST(Workload, StreamBytesPinned) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    ScaleConfig cfg = ScaleConfig::test();
    cfg.seed = seed;
    const InternetModel m{cfg};
    const Workload w{m};
    for (const StreamPin& pin : kStreamPins) {
      if (pin.seed != seed) continue;
      EXPECT_EQ(stream_hash(w, pin.week), pin.hash)
          << "seed " << pin.seed << " week " << pin.week;
    }
  }
}

TEST(IspObserver, SeesServersIncludingIxpBlindOnes) {
  const IspObserver isp{model()};
  const auto observed = isp.observed_servers(45);
  EXPECT_GT(observed.size(), 0u);
  std::size_t blind_seen = 0;
  for (const net::Ipv4Addr addr : observed) {
    const auto index = model().server_by_addr(addr);
    ASSERT_TRUE(index);  // the ISP only reports real servers
    if (!model().servers()[*index].visible()) ++blind_seen;
  }
  EXPECT_GT(blind_seen, 0u);  // §3.1: ~45K server IPs not seen at the IXP
}

TEST(IspObserver, Deterministic) {
  const IspObserver isp{model()};
  EXPECT_EQ(isp.observed_servers(45), isp.observed_servers(45));
}

}  // namespace
}  // namespace ixp::gen
