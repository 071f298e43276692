// The shipped dissector path against the per-sample oracle. Every sample
// reaches TrafficDissector through WeekShard::observe_batch: filter,
// FrameBatch staging (fields and HTTP match derived once), LaneFlags
// evidence bytes, then the phase-split table pass. The oracle
// (tests/support/dissector_oracle) applies the §2.2.2 rule one sample at
// a time over its own tables. Both must agree exactly — per-IP samples,
// bytes and evidence flags, every server's bounded Host set, and the
// week summary — at batch sizes that cut the stream everywhere: one
// sample, an odd size, the engine's default and the whole stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "classify/frame_batch.hpp"
#include "core/week_shard.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "support/dissector_oracle.hpp"
#include "util/rng.hpp"

namespace ixp::core {
namespace {

using classify::DissectorOracle;
using classify::HttpIndication;
using net::Ipv4Addr;

constexpr int kWeek = 45;

DissectorOracle run_oracle(const fabric::Ixp& ixp,
                           std::span<const sflow::FlowSample> stream) {
  const classify::PeeringFilter filter{ixp, kWeek};
  classify::FilterCounters counters;
  DissectorOracle oracle;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto peering = filter.filter(stream[i], counters);
    if (!peering) continue;
    peering->seq = i;
    oracle.ingest(*peering);
  }
  return oracle;
}

WeekShard run_shard(const fabric::Ixp& ixp,
                    std::span<const sflow::FlowSample> stream,
                    std::size_t batch_size) {
  WeekShard shard{ixp, kWeek};
  for (std::size_t at = 0; at < stream.size(); at += batch_size)
    shard.observe_batch(
        stream.subspan(at, std::min(batch_size, stream.size() - at)), at);
  return shard;
}

/// Holds the batched path to the oracle at every batch size.
void expect_matches_oracle(const fabric::Ixp& ixp,
                           std::span<const sflow::FlowSample> stream) {
  const DissectorOracle oracle = run_oracle(ixp, stream);
  ASSERT_FALSE(oracle.activity().empty());
  const std::array<std::size_t, 4> batch_sizes{1, 7, 512, stream.size()};
  for (const std::size_t batch_size : batch_sizes) {
    SCOPED_TRACE("batch size " + std::to_string(batch_size));
    const WeekShard shard = run_shard(ixp, stream, batch_size);
    const classify::TrafficDissector& got = shard.dissector();

    ASSERT_EQ(got.activity().size(), oracle.activity().size());
    std::size_t mismatches = 0;
    for (const auto& [addr, want] : oracle.activity()) {
      const auto it = got.activity().find(addr);
      ASSERT_NE(it, got.activity().end()) << addr.to_string();
      const classify::IpActivity& have = it->second;
      if (have.samples != want.samples || have.bytes != want.bytes ||
          have.flags != want.flags) {
        if (++mismatches <= 5)
          ADD_FAILURE() << addr.to_string() << ": samples " << have.samples
                        << " vs " << want.samples << ", bytes " << have.bytes
                        << " vs " << want.bytes << ", flags "
                        << int{have.flags} << " vs " << int{want.flags};
      }
      if (got.hosts_of(addr) != oracle.hosts_of(addr) && ++mismatches <= 5)
        ADD_FAILURE() << addr.to_string() << ": Host sets differ";
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(got.summarize(), oracle.summarize());
  }
}

TEST(DissectorDifferential, GeneratedWeekAtEveryBatchSize) {
  const gen::InternetModel model{gen::ScaleConfig::test()};
  const gen::Workload workload{model};
  std::vector<sflow::FlowSample> stream;
  workload.generate_week(
      kWeek, [&](const sflow::FlowSample& s) { stream.push_back(s); });
  expect_matches_oracle(model.ixp(), stream);
}

/// A hand-built fabric of two members and a randomized stream over a
/// small address pool, so every endpoint collects evidence from many
/// samples and many servers overflow the bounded Host set.
class RandomStream {
 public:
  RandomStream() {
    for (const std::uint32_t asn : {100u, 200u}) {
      fabric::Member member;
      member.asn = net::Asn{asn};
      ixp_.add_member(member);
    }
  }

  [[nodiscard]] const fabric::Ixp& ixp() const { return ixp_; }

  [[nodiscard]] std::vector<sflow::FlowSample> generate(std::size_t count) {
    util::Rng rng{0xd155ec7};
    std::vector<Ipv4Addr> pool;
    for (std::uint32_t i = 0; i < 48; ++i)
      pool.push_back(Ipv4Addr{10, 0, static_cast<std::uint8_t>(i / 8),
                              static_cast<std::uint8_t>(1 + i % 8)});
    std::vector<std::string> hosts;
    for (int i = 0; i < 40; ++i)
      hosts.push_back("h" + std::to_string(i) + ".example.net");

    const auto port = [&]() -> std::uint16_t {
      static constexpr std::array<std::uint16_t, 4> kServerPorts{80, 443,
                                                                 1935, 8080};
      if (rng.next_bool(0.6)) return kServerPorts[rng.next_below(4)];
      return static_cast<std::uint16_t>(rng.next_in(1024, 65535));
    };
    const auto host = [&] { return hosts[rng.next_below(hosts.size())]; };

    std::vector<sflow::FlowSample> stream;
    stream.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::string payload;
      switch (rng.next_below(8)) {
        case 0:
          payload = "GET /o/" + std::to_string(i) +
                    " HTTP/1.1\r\nHost: " + host() + "\r\n";
          break;
        case 1:
          payload = "POST /form HTTP/1.0\r\nAccept: */*\r\n";
          break;
        case 2:
          payload = "HTTP/1.1 200 OK\r\nHost: " + host() + "\r\n";
          break;
        case 3:
          payload = "HTTP/1.0 404 Not Found\r\nServer: t\r\n";
          break;
        case 4:
          payload = "Content-Type: text/html\r\nHost: " + host() + "\r\n";
          break;
        case 5:
          payload = "Server: t\r\n";
          break;
        case 6:
          payload.assign(rng.next_in(1, 96), '\0');
          for (char& c : payload) c = static_cast<char>(rng.next_below(256));
          break;
        default:
          break;  // empty payload
      }

      sflow::FrameSpec spec;
      const bool member_pair = rng.next_bool(0.95);
      spec.src_mac = fabric::Ixp::port_mac_for(net::Asn{100});
      spec.dst_mac = member_pair ? fabric::Ixp::port_mac_for(net::Asn{200})
                                 : sflow::MacAddr::from_id(77);
      spec.src_ip = pool[rng.next_below(pool.size())];
      spec.dst_ip = pool[rng.next_below(pool.size())];
      spec.src_port = port();
      spec.dst_port = port();
      spec.frame_length = static_cast<std::uint16_t>(rng.next_in(64, 1500));
      std::vector<std::byte> data(payload.size());
      std::ranges::copy(std::as_bytes(std::span{payload}), data.begin());

      sflow::FlowSample sample;
      sample.sampling_rate = static_cast<std::uint32_t>(rng.next_in(1, 20000));
      sample.frame = rng.next_bool(0.8)
                         ? sflow::build_tcp_frame(spec, data, data.size())
                         : sflow::build_udp_frame(spec, data, data.size());
      stream.push_back(std::move(sample));
    }
    return stream;
  }

 private:
  fabric::Ixp ixp_;
};

TEST(DissectorDifferential, RandomizedStreamAtEveryBatchSize) {
  RandomStream random;
  const std::vector<sflow::FlowSample> stream = random.generate(20'000);

  // The stream reaches every case the evidence rule distinguishes: each
  // indication, each server port on TCP and on UDP, and full Host sets.
  const classify::PeeringFilter filter{random.ixp(), kWeek};
  classify::FilterCounters counters;
  classify::FrameBatch staged;
  for (const sflow::FlowSample& sample : stream)
    if (auto peering = filter.filter(sample, counters)) staged.push(*peering);
  ASSERT_LT(staged.size(), stream.size());  // some samples are filtered out
  std::array<bool, 4> indication_seen{};
  std::array<bool, 2> port_seen_on[4]{};
  const std::array<std::uint16_t, 4> ports{80, 443, 1935, 8080};
  for (std::size_t i = 0; i < staged.size(); ++i) {
    indication_seen[staged.indication()[i]] = true;
    for (std::size_t p = 0; p < ports.size(); ++p)
      if (staged.src_port()[i] == ports[p] || staged.dst_port()[i] == ports[p])
        port_seen_on[p][staged.tcp()[i]] = true;
  }
  for (std::size_t k = 0; k < indication_seen.size(); ++k)
    EXPECT_TRUE(indication_seen[k]) << "indication " << k;
  for (std::size_t p = 0; p < ports.size(); ++p) {
    EXPECT_TRUE(port_seen_on[p][0]) << "UDP port " << ports[p];
    EXPECT_TRUE(port_seen_on[p][1]) << "TCP port " << ports[p];
  }
  const DissectorOracle oracle = run_oracle(random.ixp(), stream);
  std::size_t full_host_sets = 0;
  for (const auto& [addr, info] : oracle.activity())
    full_host_sets += oracle.hosts_of(addr).size() == 8 ? 1 : 0;
  EXPECT_GT(full_host_sets, 0u);

  expect_matches_oracle(random.ixp(), stream);
}

}  // namespace
}  // namespace ixp::core
