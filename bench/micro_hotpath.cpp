// The zero-allocation hot-path benchmark: dissect and filter + dissect
// throughput on the production (flat-table, string_view, FrameBatch)
// path, the LaneFlags kernel per form, and the shard merge. Every number
// lands in the JSON trajectory (--json BENCH_hotpath.json):
//
//   build/bench/micro_hotpath --json BENCH_hotpath.json
//
// The batched case must also show 0 allocs/item once tables reach steady
// state (the suite's warmup pass gets them there); the harness measures
// that via the interposed allocation counter rather than trusting the
// code to be allocation-free by inspection.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "classify/dissector.hpp"
#include "classify/http_matcher.hpp"
#include "classify/lane_flags.hpp"
#include "classify/peering_filter.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/week_shard.hpp"
#include "fabric/ixp.hpp"
#include "sflow/frame.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

constexpr int kWeek = 45;
constexpr std::size_t kPoolSamples = 4096;
constexpr std::size_t kServerIps = 8192;
constexpr std::size_t kClientIps = 8192;
constexpr std::size_t kHosts = 64;

struct Fixture {
  fabric::Ixp ixp;
  std::vector<sflow::FlowSample> pool;

  Fixture() {
    fabric::Member a;
    a.asn = net::Asn{100};
    ixp.add_member(a);
    fabric::Member b;
    b.asn = net::Asn{200};
    ixp.add_member(b);

    std::vector<std::string> hosts;
    hosts.reserve(kHosts);
    for (std::size_t h = 0; h < kHosts; ++h)
      hosts.push_back("cdn" + std::to_string(h) + ".bench.example");

    util::Rng rng{0x10c4f00d};
    pool.reserve(kPoolSamples);
    for (std::size_t i = 0; i < kPoolSamples; ++i) {
      const auto server = net::Ipv4Addr{static_cast<std::uint32_t>(
          0x0a000000u + rng.next_below(kServerIps))};
      const auto client = net::Ipv4Addr{static_cast<std::uint32_t>(
          0x0a010000u + rng.next_below(kClientIps))};

      sflow::FrameSpec spec;
      spec.src_mac = fabric::Ixp::port_mac_for(net::Asn{100});
      spec.dst_mac = fabric::Ixp::port_mac_for(net::Asn{200});

      std::string payload;
      const double kind = rng.next_double();
      if (kind < 0.45) {  // HTTP request with a Host header
        spec.src_ip = client;
        spec.dst_ip = server;
        spec.src_port = static_cast<std::uint16_t>(40000 + rng.next_below(8000));
        spec.dst_port = 80;
        payload = "GET /content/" + std::to_string(rng.next_below(100000)) +
                  " HTTP/1.1\r\nHost: " + hosts[rng.next_below(kHosts)] +
                  "\r\nAccept: */*\r\n";
      } else if (kind < 0.70) {  // HTTP response
        spec.src_ip = server;
        spec.dst_ip = client;
        spec.src_port = 80;
        spec.dst_port = static_cast<std::uint16_t>(40000 + rng.next_below(8000));
        payload = "HTTP/1.1 200 OK\r\nServer: bench\r\nContent-Type: "
                  "text/html\r\n";
      } else if (kind < 0.85) {  // HTTPS candidate (opaque payload)
        spec.src_ip = client;
        spec.dst_ip = server;
        spec.src_port = static_cast<std::uint16_t>(40000 + rng.next_below(8000));
        spec.dst_port = 443;
        payload.assign(48, '\0');
        for (auto& c : payload) c = static_cast<char>(rng.next_below(256));
      } else {  // non-HTTP noise
        spec.src_ip = client;
        spec.dst_ip = server;
        spec.src_port = static_cast<std::uint16_t>(40000 + rng.next_below(8000));
        spec.dst_port = static_cast<std::uint16_t>(1024 + rng.next_below(30000));
        payload.assign(64, '\0');
        for (auto& c : payload) c = static_cast<char>(rng.next_below(256));
      }

      std::vector<std::byte> data(payload.size());
      std::memcpy(data.data(), payload.data(), data.size());
      sflow::FlowSample sample;
      sample.sampling_rate = 16384;
      sample.frame = sflow::build_tcp_frame(spec, data, 600);
      pool.push_back(std::move(sample));
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"hotpath", args};
  const Fixture fixture;

  // The dissect cases isolate the table-update loop: filtering and frame
  // parsing run once up front; the pool outlives the PeeringSamples whose
  // spans point into it.
  std::vector<classify::PeeringSample> peering;
  {
    const classify::PeeringFilter filter{fixture.ixp, kWeek};
    classify::FilterCounters counters;
    peering.reserve(fixture.pool.size());
    std::uint64_t seq = 0;
    for (const sflow::FlowSample& sample : fixture.pool) {
      auto p = filter.filter(sample, counters);
      if (p) {
        p->seq = seq++;
        peering.push_back(*p);
      }
    }
  }

  // Production path: the survivors staged through a FrameBatch (fields
  // derived once, at staging time — exactly what WeekShard::observe_batch
  // does per batch), ingested via the SoA pass on flat tables with
  // lookahead prefetch. Steady-state expectation after the warmup pass:
  // 0 allocs/item.
  {
    classify::FrameBatch batch;
    batch.reserve(peering.size());
    for (const classify::PeeringSample& sample : peering) batch.push(sample);
    classify::TrafficDissector dissector;
    suite.run_case(
        "dissect_observe_batched", 2000,
        [&](std::uint64_t iters, int) {
          for (std::uint64_t it = 0; it < iters; ++it) dissector.ingest(batch);
          return iters * batch.size();
        });
    bench::keep(dissector.summarize());
  }

  // The same survivors with every address multiplied by an odd constant:
  // a bijection that scatters the fixture's two /18-sized pools over all
  // kPartitions address partitions (a handful of IPs each), as a real week
  // spreads its IPs, where the case above puts them all in one.
  {
    classify::FrameBatch batch;
    batch.reserve(peering.size());
    const auto spread = [](net::Ipv4Addr addr) {
      return net::Ipv4Addr{addr.value() * 0x9e3779b1u};
    };
    for (classify::PeeringSample sample : peering) {
      sample.frame.ip->src = spread(sample.frame.ip->src);
      sample.frame.ip->dst = spread(sample.frame.ip->dst);
      batch.push(sample);
    }
    classify::TrafficDissector dissector;
    suite.run_case(
        "dissect_observe_spread", 2000,
        [&](std::uint64_t iters, int) {
          for (std::uint64_t it = 0; it < iters; ++it) dissector.ingest(batch);
          return iters * batch.size();
        });
    bench::keep(dissector.summarize());
  }

  // LaneFlags A/B: the evidence-bit kernel swept over the staged batch
  // arrays with each implementation pinned directly — the scalar branch
  // form and, where the target has SSE2, the shipped 16-wide form — so
  // the tier choice in DESIGN.md §14 stays tied to measured numbers.
  {
    classify::FrameBatch batch;
    batch.reserve(peering.size());
    for (const classify::PeeringSample& sample : peering) batch.push(sample);
    std::vector<std::uint8_t> src_flags(batch.size());
    std::vector<std::uint8_t> dst_flags(batch.size());
    const auto sweep = [&](auto kernel) {
      return [&, kernel](std::uint64_t iters, int) {
        for (std::uint64_t it = 0; it < iters; ++it)
          kernel(batch.src_port(), batch.dst_port(), batch.tcp(),
                 batch.indication(), batch.size(), src_flags.data(),
                 dst_flags.data());
        bench::keep(src_flags.empty() ? 0 : src_flags[0] ^ dst_flags[0]);
        return iters * batch.size();
      };
    };
    suite.run_case("lane_flags_scalar", 4000,
                   sweep(classify::LaneFlags::compute_scalar));
#ifdef __SSE2__
    suite.run_case("lane_flags_sse2", 20000,
                   sweep(classify::detail::lane_flags_sse2));
#endif
  }

  // Shard merge: two dissectors of ~289K IPs each, an eighth of them
  // shared, each table at load ~0.55 (a 1/1024 week's working set, not
  // cache-resident). Only the merge is timed; every iteration folds fresh
  // copies. The union outgrows the destination's capacity mid-fold, and
  // folding in slot order without reserving the union bound first then
  // clusters quadratically (DESIGN.md §7): ~12 us/item instead of
  // ~0.25 us, so a return of that trips the bench_diff gate.
  {
    constexpr std::uint32_t kMergeIps = 289'000;
    const auto fill = [&](std::uint32_t first) {
      classify::FrameBatch batch;
      std::uint32_t next = first;
      const auto addr = [](std::uint32_t i) {
        return net::Ipv4Addr{i * 0x9e3779b1u};  // odd multiplier: distinct
      };
      for (std::size_t i = 0; next < first + kMergeIps; ++i) {
        classify::PeeringSample sample = peering[i % peering.size()];
        sample.frame.ip->src = addr(next++);
        sample.frame.ip->dst = addr(next++);
        batch.push(sample);
      }
      classify::TrafficDissector d;
      d.ingest(batch);
      return d;
    };
    const classify::TrafficDissector left = fill(0);
    const classify::TrafficDissector right = fill(kMergeIps * 7 / 8);
    const std::uint64_t iters = args.iters > 0 ? args.iters : 8;
    bench::BenchResult result;
    result.name = "shard_merge";
    result.iters = iters;
    result.threads = args.threads;
    for (int pass = 0; pass < (iters > 1 ? 3 : 1); ++pass) {
      double seconds = 0.0;
      std::uint64_t allocs = 0;
      std::uint64_t items = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        classify::TrafficDissector into = left;
        classify::TrafficDissector from = right;
        items += from.activity().size();
        const std::uint64_t allocs_before = bench::alloc_count();
        const auto t0 = std::chrono::steady_clock::now();
        into.merge(std::move(from));
        seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        allocs += bench::alloc_count() - allocs_before;
        bench::keep(into.activity().size());
      }
      if (pass == 0 || seconds < result.seconds) {
        result.seconds = seconds;
        result.items = items;
        result.allocs = allocs;
      }
    }
    suite.add(std::move(result));
  }

  // End-to-end context: filter + dissect together, as production runs
  // it — WeekShard::observe_batch over the engine's default batch size.
  {
    core::WeekShard shard{fixture.ixp, kWeek};
    const std::span<const sflow::FlowSample> pool{fixture.pool};
    const std::size_t batch_size = core::ParallelOptions{}.batch_size;
    std::uint64_t seq = 0;
    suite.run_case(
        "filter_dissect_flat", 600,
        [&](std::uint64_t iters, int) {
          for (std::uint64_t it = 0; it < iters; ++it) {
            for (std::size_t at = 0; at < pool.size(); at += batch_size) {
              const auto batch =
                  pool.subspan(at, std::min(batch_size, pool.size() - at));
              shard.observe_batch(batch, seq);
              seq += batch.size();
            }
          }
          return iters * pool.size();
        });
    bench::keep(shard.dissector().summarize());
  }

  return 0;
}
