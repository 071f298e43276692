// Collector-service benchmarks: the cost of the pieces `ixpscope serve`
// adds on top of the offline engine, one ixpscope-bench-v1 JSON document:
//
//   build/bench/micro_serve --json BENCH_serve.json
//
// Cases:
//   frame_codec        encode_replay_frame + parse_frame round trip per
//                      datagram (the replay path's framing overhead)
//   queue_offer_take   AgentQueues hand-off throughput, no drops: offer
//                      one datagram, take it back, books balanced
//   overload_shed      offers against a full slice — the drop path must
//                      stay cheap, because a flooding agent pays it on
//                      every datagram and the service must never stall
//   decode_pump        the pump-worker hot path minus the shard: take,
//                      decode_into the reused scratch, bump the decode
//                      counters (sequence gaps were already counted by
//                      offer(), which this case also pays)
//   serve_drain_N      the whole service end to end at the test scale:
//                      offer every framed record, drain, publish — the
//                      N-worker figure includes snapshot()'s fold and the
//                      probe/aggregate phase, so it moves with the same
//                      phases `ixpscope analyze` exercises
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "bench_json.hpp"
#include "core/serve_service.hpp"
#include "sflow/datagram.hpp"
#include "sflow/socket_intake.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

constexpr std::size_t kPoolDatagrams = 2048;
constexpr std::size_t kSamplesPerDatagram = 16;

/// Realistic payload pool: encoded sFlow datagrams with the production
/// capture-size spread, each from one of 32 synthetic agents.
std::vector<std::vector<std::byte>> build_payloads() {
  util::Rng rng{0x5e57e1ce};
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(kPoolDatagrams);
  for (std::size_t d = 0; d < kPoolDatagrams; ++d) {
    sflow::Datagram datagram;
    datagram.agent = net::Ipv4Addr{10, 99, 0, static_cast<std::uint8_t>(d % 32)};
    datagram.sequence = static_cast<std::uint32_t>(d / 32);
    for (std::size_t i = 0; i < kSamplesPerDatagram; ++i) {
      sflow::FlowSample sample;
      sample.sequence = static_cast<std::uint32_t>(d * kSamplesPerDatagram + i);
      sample.source_port = static_cast<std::uint32_t>(rng.next_below(512));
      sample.sampling_rate = 16384;
      sample.frame.frame_length = 600;
      sample.frame.captured =
          static_cast<std::uint16_t>(60 + rng.next_below(69));  // 60..128
      for (std::size_t b = 0; b < sample.frame.captured; ++b)
        sample.frame.data[b] = static_cast<std::byte>(rng.next_below(256));
      datagram.samples.push_back(sample);
    }
    payloads.push_back(sflow::encode(datagram));
  }
  return payloads;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"serve", args};

  const auto payloads = build_payloads();

  suite.run_case("frame_codec", 200, [&](std::uint64_t iters, int) {
    std::uint64_t items = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (std::size_t d = 0; d < payloads.size(); ++d) {
        const auto frame =
            sflow::encode_replay_frame(d * 4096, payloads[d]);
        const auto envelope = sflow::parse_frame(frame);
        bench::keep(envelope.offset);
        bench::keep(envelope.agent);
        ++items;
      }
    }
    return items;
  });

  suite.run_case("queue_offer_take", 200, [&](std::uint64_t iters, int) {
    sflow::AgentQueues queues;
    sflow::DatagramEnvelope envelope;
    std::uint64_t items = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (const auto& payload : payloads) {
        (void)queues.offer(sflow::parse_frame(payload));
        (void)queues.try_take(envelope);
        bench::keep(envelope.agent);
        ++items;
      }
    }
    return items;
  });

  suite.run_case("overload_shed", 200, [&](std::uint64_t iters, int) {
    // One-slot slices, never drained: after the first datagram per agent
    // everything takes the drop path, which is the cost a flood imposes.
    sflow::AgentQueues queues{/*per_agent_capacity=*/1};
    std::uint64_t items = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (const auto& payload : payloads) {
        (void)queues.offer(sflow::parse_frame(payload));
        ++items;
      }
    }
    return items;
  });

  suite.run_case("decode_pump", 100, [&](std::uint64_t iters, int) {
    // The pump-worker inner loop without the shard: steady-state decode
    // into a reused scratch datagram plus the workers' shared counters.
    core::DecodeCounters counters;
    sflow::Datagram scratch;
    sflow::AgentQueues queues{/*per_agent_capacity=*/kPoolDatagrams};
    sflow::DatagramEnvelope envelope;
    std::uint64_t items = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (const auto& payload : payloads)
        (void)queues.offer(sflow::parse_frame(payload));
      while (queues.try_take(envelope)) {
        if (!sflow::decode_into(envelope.payload, scratch)) {
          counters.decode_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        counters.count(scratch);
        items += scratch.samples.size();
      }
    }
    bench::keep(counters.datagrams.load());
    return items;
  });

  // End to end at the test scale: the model build is amortized across
  // iterations, each iteration is one service lifetime (offer everything,
  // drain, publish the final snapshot).
  const analysis::Study study{gen::ScaleConfig::test()};
  core::VantagePoint vantage = study.vantage();
  const classify::ChainFetcher fetch = study.fetcher(45);

  for (const unsigned threads : {1u, 2u}) {
    suite.run_case(
        "serve_drain_" + std::to_string(threads), 3,
        [&](std::uint64_t iters, int) {
          std::uint64_t items = 0;
          for (std::uint64_t it = 0; it < iters; ++it) {
            core::ServeOptions options;
            options.week = 45;
            options.threads = threads;
            core::ServeService service{vantage, fetch, options};
            service.start();
            for (std::size_t d = 0; d < payloads.size(); ++d) {
              (void)service.offer(sflow::parse_frame(
                  sflow::encode_replay_frame(d * 4096, payloads[d])));
            }
            const auto snap = service.drain();
            items += snap->accounting.flow_samples;
            bench::keep(snap->report.peering_ips);
          }
          return items;
        });
  }

  const auto& results = suite.results();
  if (!results.empty()) {
    std::printf("decode_pump: %.0f samples/sec  (allocs/item: %.4f)\n",
                results[3].items_per_sec(), results[3].allocs_per_item());
  }
  return 0;
}
