#include "classify/dissector.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ixp::classify {
namespace {

using net::Ipv4Addr;

/// Builds, parses, stages and ingests a sample in one scope: ParsedFrame's
/// payload span (and the staged Host view into it) is only valid while
/// the capture buffer lives.
void ingest(TrafficDissector& d, Ipv4Addr src, Ipv4Addr dst,
            std::uint16_t src_port, std::uint16_t dst_port,
            const std::string& payload, std::uint64_t bytes = 1000,
            std::uint64_t seq = 0) {
  sflow::FrameSpec spec;
  spec.src_mac = sflow::MacAddr::from_id(1);
  spec.dst_mac = sflow::MacAddr::from_id(2);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.src_port = src_port;
  spec.dst_port = dst_port;
  std::vector<std::byte> data(payload.size());
  std::ranges::copy(std::as_bytes(std::span{payload}), data.begin());
  const sflow::SampledFrame frame =
      sflow::build_tcp_frame(spec, data, payload.size());
  PeeringSample sample;
  sample.frame = *sflow::parse_frame(frame);
  sample.expanded_bytes = bytes;
  sample.seq = seq;
  FrameBatch batch;
  batch.push(sample);
  d.ingest(batch);
}

const Ipv4Addr kServer{10, 0, 0, 1};
const Ipv4Addr kClient{172, 20, 0, 9};

TEST(TrafficDissector, RequestIdentifiesServerAndClient) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 80,
         "GET / HTTP/1.1\r\nHost: example.com\r\n");
  const auto& activity = d.activity();
  EXPECT_TRUE(activity.at(kServer).http_server());
  EXPECT_FALSE(activity.at(kServer).client());
  EXPECT_TRUE(activity.at(kClient).client());
  EXPECT_FALSE(activity.at(kClient).http_server());
  ASSERT_EQ(d.hosts_of(kServer).size(), 1u);
  EXPECT_EQ(d.hosts_of(kServer)[0], "example.com");
  EXPECT_TRUE(d.hosts_of(kClient).empty());
}

TEST(TrafficDissector, ResponseIdentifiesServerOnSrcSide) {
  TrafficDissector d;
  ingest(d, kServer, kClient, 80, 40000,
                       "HTTP/1.1 200 OK\r\nServer: x\r\n");
  EXPECT_TRUE(d.activity().at(kServer).http_server());
  EXPECT_TRUE(d.activity().at(kClient).client());
}

TEST(TrafficDissector, OpaquePayloadIdentifiesNothing) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 80, "\x01\x02\x03\x04");
  EXPECT_FALSE(d.activity().at(kServer).http_server());
  EXPECT_FALSE(d.activity().at(kClient).client());
}

TEST(TrafficDissector, Port443MarksCandidates) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 443, "\x16\x03\x01");
  const auto candidates = d.https_candidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], kServer);
  EXPECT_FALSE(d.activity().at(kServer).web_server());  // not yet confirmed
}

TEST(TrafficDissector, ConfirmHttpsPromotesToWebServer) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 443, "");
  d.confirm_https(kServer);
  EXPECT_TRUE(d.activity().at(kServer).https_server());
  EXPECT_TRUE(d.activity().at(kServer).web_server());
  const auto servers = d.web_servers();
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers[0], kServer);
}

TEST(TrafficDissector, MultiPurposeNeedsTwoPorts) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 80,
                       "GET / HTTP/1.1\r\nHost: a.com\r\n");
  EXPECT_FALSE(d.activity().at(kServer).multi_purpose());
  ingest(d, kClient, kServer, 40001, 1935, "rtmp-handshake");
  EXPECT_TRUE(d.activity().at(kServer).multi_purpose());
}

TEST(TrafficDissector, HttpsPlusHttpIsMultiPurpose) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 80,
                       "GET / HTTP/1.1\r\nHost: a.com\r\n");
  ingest(d, kClient, kServer, 40001, 443, "");
  d.confirm_https(kServer);
  EXPECT_TRUE(d.activity().at(kServer).multi_purpose());
}

TEST(TrafficDissector, DualRoleServerAndClient) {
  TrafficDissector d;
  // kServer serves...
  ingest(d, kClient, kServer, 40000, 80,
                       "GET / HTTP/1.1\r\nHost: a.com\r\n");
  // ...and also fetches from another server (machine-to-machine).
  const Ipv4Addr other{10, 0, 0, 2};
  ingest(d, kServer, other, 41000, 80,
                       "GET / HTTP/1.1\r\nHost: b.com\r\n");
  const auto summary = d.summarize();
  EXPECT_EQ(summary.dual_role_ips, 1u);
}

TEST(TrafficDissector, HostsDeduplicatedAndCapped) {
  TrafficDissector d;
  for (int i = 0; i < 20; ++i) {
    ingest(d, kClient, kServer, 40000, 80,
                         "GET / HTTP/1.1\r\nHost: host" + std::to_string(i % 12) +
                             ".com\r\n");
  }
  EXPECT_LE(d.hosts_of(kServer).size(), 8u);
  // Duplicates collapsed.
  ingest(d, kClient, kServer, 40000, 80,
                       "GET / HTTP/1.1\r\nHost: host0.com\r\n");
  EXPECT_LE(d.hosts_of(kServer).size(), 8u);
}

TEST(TrafficDissector, BytesAccumulateOnBothEndpoints) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 80, "", 500);
  ingest(d, kServer, kClient, 80, 40000, "", 700);
  EXPECT_EQ(d.activity().at(kServer).bytes, 1200u);
  EXPECT_EQ(d.activity().at(kClient).bytes, 1200u);
  EXPECT_DOUBLE_EQ(d.summarize().total_bytes, 1200.0);
}

TEST(TrafficDissector, MergeReproducesSequentialHostOrder) {
  // 12 distinct hosts (cap is 8) split across two dissectors; the merged
  // host set must equal the one a single dissector accumulates, because
  // the cap keeps the 8 smallest (first_seq, name) keys — an exact order
  // statistic of the union.
  const auto host_request = [](int i) {
    return "GET / HTTP/1.1\r\nHost: host" + std::to_string(i) + ".com\r\n";
  };
  TrafficDissector whole;
  TrafficDissector left;
  TrafficDissector right;
  for (int i = 0; i < 12; ++i) {
    const auto seq = static_cast<std::uint64_t>(i);
    ingest(whole, kClient, kServer, 40000, 80, host_request(i), 1000, seq);
    ingest(i % 2 == 0 ? left : right, kClient, kServer, 40000, 80,
           host_request(i), 1000, seq);
  }
  left.merge(std::move(right));
  EXPECT_EQ(left.hosts_of(kServer), whole.hosts_of(kServer));
  EXPECT_EQ(left.activity().at(kServer).samples,
            whole.activity().at(kServer).samples);
  EXPECT_EQ(left.activity().at(kServer).bytes,
            whole.activity().at(kServer).bytes);
  EXPECT_EQ(left.summarize(), whole.summarize());
}

TEST(TrafficDissector, SummaryCounts) {
  TrafficDissector d;
  ingest(d, kClient, kServer, 40000, 80,
                       "GET / HTTP/1.1\r\nHost: a.com\r\n");
  const auto summary = d.summarize();
  EXPECT_EQ(summary.unique_ips, 2u);
  EXPECT_EQ(summary.http_server_ips, 1u);
  EXPECT_EQ(summary.web_server_ips, 1u);
  EXPECT_EQ(summary.client_ips, 1u);
  EXPECT_EQ(summary.https_server_ips, 0u);
}

// Regression: ingest takes references into the activity table for BOTH
// endpoints; if inserting the second endpoint rehashed the table, the
// first reference dangled into the freed slot array and the update was
// lost (or crashed). Growing the map one fresh address per sample walks
// every rehash boundary up to 1024 slots, so the fixed-src counter must
// come out exact — any boundary miss shows up as a short count.
TEST(TrafficDissector, CounterSurvivesEveryRehashBoundary) {
  TrafficDissector d;
  constexpr int kSamples = 600;
  for (int i = 0; i < kSamples; ++i) {
    const Ipv4Addr fresh{10, 1, static_cast<std::uint8_t>(i >> 8),
                         static_cast<std::uint8_t>(i & 0xFF)};
    ingest(d, kClient, fresh, 40000, 9999, "x", 10);
  }
  ASSERT_TRUE(d.activity().contains(kClient));
  EXPECT_EQ(d.activity().at(kClient).samples, static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(d.activity().at(kClient).bytes, 10u * kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const Ipv4Addr fresh{10, 1, static_cast<std::uint8_t>(i >> 8),
                         static_cast<std::uint8_t>(i & 0xFF)};
    EXPECT_EQ(d.activity().at(fresh).samples, 1u) << i;
  }
}

/// `count` distinct addresses starting at stream position `first`: an odd
/// multiplier is a bijection on 32 bits, so no two positions collide.
std::vector<Ipv4Addr> distinct_addrs(std::uint32_t first, std::uint32_t count) {
  std::vector<Ipv4Addr> out;
  out.reserve(count);
  for (std::uint32_t i = first; i < first + count; ++i)
    out.push_back(Ipv4Addr{i * 0x9e3779b1u});
  return out;
}

TrafficDissector dissector_of(const std::vector<Ipv4Addr>& addrs) {
  TrafficDissector d;
  for (const Ipv4Addr addr : addrs) d.confirm_https(addr);
  return d;
}

template <class Fn>
double best_seconds(int passes, Fn&& fn) {
  double best = 1e30;
  for (int pass = 0; pass < passes; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

// Regression: merge folds the source table in slot order, which is sorted
// by home slot. Into a destination with less capacity (an empty one grows
// from its initial reserve), that order wraps onto slots already filled
// at the source's load and linear probing clusters quadratically: a
// 289K-entry fold at load 0.55 took seconds instead of milliseconds.
// Each fold must cost at most 10x inserting the same keys in shuffled
// order (the clustering made it 100-300x).
TEST(TrafficDissector, MergeDoesNotClusterOnLoadedSource) {
  constexpr std::uint32_t kSource = 289'000;
  const std::vector<Ipv4Addr> source_addrs = distinct_addrs(0, kSource);
  const TrafficDissector source = dissector_of(source_addrs);
  ASSERT_GT(source.activity().load_factor(), 0.5f);

  std::vector<Ipv4Addr> shuffled = source_addrs;
  util::Rng rng{0x5eed};
  rng.shuffle(std::span<Ipv4Addr>{shuffled});
  const double insert_s = best_seconds(3, [&] {
    TrafficDissector d;
    for (const Ipv4Addr addr : shuffled) d.confirm_https(addr);
    ASSERT_EQ(d.activity().size(), kSource);
  });

  const TrafficDissector small = dissector_of(distinct_addrs(kSource, 50'000));
  const TrafficDissector disjoint = dissector_of(distinct_addrs(2 * kSource, kSource));
  const struct {
    const char* name;
    const TrafficDissector* dest;
  } folds[] = {{"empty", nullptr}, {"50K", &small}, {"equal-size disjoint", &disjoint}};
  for (const auto& fold : folds) {
    SCOPED_TRACE(fold.name);
    double fold_s = 1e30;
    for (int pass = 0; pass < 3; ++pass) {
      TrafficDissector dest = fold.dest ? *fold.dest : TrafficDissector{};
      TrafficDissector from = source;
      const std::size_t want = dest.activity().size() + kSource;
      fold_s = std::min(fold_s, best_seconds(1, [&] { dest.merge(std::move(from)); }));
      EXPECT_EQ(dest.activity().size(), want);
      EXPECT_TRUE(from.activity().empty());
    }
    EXPECT_LE(fold_s, 10.0 * insert_s)
        << "fold " << fold_s << " s vs shuffled insert " << insert_s << " s";
  }
}

// Every partition holds entries, host sets included; three dissectors
// folded in two different orders must equal the one that saw every sample,
// entry for entry, and iterate in partition order.
TEST(TrafficDissector, MergeParityAcrossEveryPartition) {
  constexpr std::uint32_t kSpan = std::uint32_t{1} << (32 - kPartitionBits);
  TrafficDissector whole;
  TrafficDissector parts[3];
  TrafficDissector parts_reversed[3];
  util::Rng rng{0x9a27};
  std::uint64_t seq = 0;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    for (int k = 0; k < 3; ++k) {
      // Both ends of the partition's range and a random address inside.
      const std::uint32_t offsets[] = {0, kSpan - 1,
                                       static_cast<std::uint32_t>(rng.next_below(kSpan))};
      const Ipv4Addr server{p * kSpan + offsets[k]};
      const Ipv4Addr client{static_cast<std::uint32_t>(rng())};
      const std::string request =
          "GET / HTTP/1.1\r\nHost: h" + std::to_string(rng.next_below(12)) + ".com\r\n";
      const std::size_t into = rng.next_below(3);
      const std::uint64_t bytes = 1 + rng.next_below(5000);
      ingest(whole, client, server, 40000, 80, request, bytes, seq);
      ingest(parts[into], client, server, 40000, 80, request, bytes, seq);
      ingest(parts_reversed[into], client, server, 40000, 80, request, bytes, seq);
      ++seq;
    }
  }
  for (std::size_t p = 0; p < kPartitions; ++p)
    ASSERT_FALSE(whole.activity().partition(p).empty()) << p;

  parts[0].merge(std::move(parts[1]));
  parts[0].merge(std::move(parts[2]));
  parts_reversed[2].merge(std::move(parts_reversed[0]));
  parts_reversed[2].merge(std::move(parts_reversed[1]));
  for (const TrafficDissector* merged : {&parts[0], &parts_reversed[2]}) {
    ASSERT_EQ(merged->activity().size(), whole.activity().size());
    std::size_t last_partition = 0;
    for (const auto& [addr, info] : merged->activity()) {
      ASSERT_GE(partition_of(addr), last_partition);
      last_partition = partition_of(addr);
      const IpActivity& want = whole.activity().at(addr);
      EXPECT_EQ(info.samples, want.samples) << addr.to_string();
      EXPECT_EQ(info.bytes, want.bytes) << addr.to_string();
      EXPECT_EQ(info.flags, want.flags) << addr.to_string();
      EXPECT_EQ(merged->hosts_of(addr), whole.hosts_of(addr)) << addr.to_string();
    }
    EXPECT_EQ(merged->summarize(), whole.summarize());
    EXPECT_EQ(merged->summarize(4), whole.summarize());
    EXPECT_EQ(merged->web_servers(), whole.web_servers());
  }
  EXPECT_TRUE(parts[1].activity().empty());
  EXPECT_TRUE(parts_reversed[0].activity().empty());
}

// The single table this dissector replaced reserved 1 << 16 entries up
// front; the partitions start empty and grow as addresses arrive, so a
// fresh dissector (one per worker shard, per serve slot and epoch) must
// not cost more heap than that reserve did.
TEST(TrafficDissector, FreshDissectorCostsNoMoreThanTheOldReserve) {
  // reserve(1 << 16) at a 7/8 load bound: 2^17 slots of key and value
  // plus one occupancy byte each.
  constexpr std::size_t kOldReserveBytes =
      (std::size_t{1} << 17) * (sizeof(std::pair<Ipv4Addr, IpActivity>) + 1);
  const auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const std::size_t before = heap_bytes();
  const TrafficDissector fresh;
  const std::size_t after = heap_bytes();
  EXPECT_EQ(fresh.activity().capacity(), 0u);
  EXPECT_LE(after - std::min(before, after), kOldReserveBytes);
}

}  // namespace
}  // namespace ixp::classify
