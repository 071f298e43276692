// Micro-benchmarks: the per-sample measurement hot path — HTTP string
// matching and the filter+dissect pipeline. (micro_hotpath carries the
// batch-level dissect, LaneFlags and shard-merge cases.)
//
// The http_match_request/response/miss rows time one cache-resident
// payload each. http_match_week45 times the matcher over a real working
// set: every TCP payload of bench-scale (1/256) week 45's peering
// samples, ~510K of them, collected once, untimed, before the case runs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/study.hpp"
#include "bench_json.hpp"
#include "classify/dissector.hpp"
#include "classify/http_matcher.hpp"
#include "classify/peering_filter.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

/// Week 45's peering TCP payloads at bench scale, back to back in one
/// buffer. Building the model and generating the week take seconds; the
/// model is freed before the case runs.
struct PayloadCorpus {
  std::string bytes;
  std::vector<std::size_t> ends;  // payload i is [ends[i-1], ends[i])
};

PayloadCorpus week45_payloads() {
  constexpr int kWeek = 45;
  const analysis::Study study{gen::ScaleConfig::bench(1.0 / 256.0)};
  const classify::PeeringFilter filter{study.model().ixp(), kWeek};
  classify::FilterCounters counters;
  PayloadCorpus corpus;
  gen::WeekSource source = study.week(kWeek);
  ingest::SampleBatch batch;
  while (source.next_batch(batch) == ingest::SourceStatus::kBatch) {
    for (const sflow::FlowSample& sample : batch.samples) {
      const auto peering = filter.filter(sample, counters);
      if (!peering || !peering->frame.is_tcp() || peering->frame.payload.empty())
        continue;
      const std::span<const std::byte> payload = peering->frame.payload;
      corpus.bytes.append(reinterpret_cast<const char*>(payload.data()),
                          payload.size());
      corpus.ends.push_back(corpus.bytes.size());
    }
  }
  return corpus;
}

void bench_match(bench::Suite& suite, const std::string& name,
                 const std::string& payload) {
  suite.run_case(name, 5'000'000, [&](std::uint64_t iters, int) {
    for (std::uint64_t it = 0; it < iters; ++it)
      bench::keep(classify::HttpMatcher::match(payload));
    return iters;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"classify", args};

  bench_match(suite, "http_match_request",
              "GET /content/12345 HTTP/1.1\r\nHost: www.example.com\r\n"
              "Accept: */*\r\n");
  bench_match(suite, "http_match_response",
              "HTTP/1.1 200 OK\r\nServer: nginx\r\nContent-Type: text/html\r\n");
  {
    std::string payload(74, '\0');
    util::Rng rng{1};
    for (auto& c : payload) c = static_cast<char>(rng.next_below(256));
    bench_match(suite, "http_match_miss", payload);
  }

  {
    const PayloadCorpus corpus = week45_payloads();
    std::vector<std::string_view> payloads;
    payloads.reserve(corpus.ends.size());
    std::size_t begin = 0;
    for (const std::size_t end : corpus.ends) {
      payloads.emplace_back(corpus.bytes.data() + begin, end - begin);
      begin = end;
    }
    std::printf("  week 45 at 1/256: %zu peering TCP payloads, %zu bytes\n",
                payloads.size(), corpus.bytes.size());
    suite.run_case("http_match_week45", 8, [&](std::uint64_t iters, int) {
      for (std::uint64_t it = 0; it < iters; ++it)
        for (const std::string_view payload : payloads)
          bench::keep(classify::HttpMatcher::match(payload));
      return iters * payloads.size();
    });
  }

  {
    fabric::Ixp ixp;
    fabric::Member a;
    a.asn = net::Asn{100};
    ixp.add_member(a);
    fabric::Member b;
    b.asn = net::Asn{200};
    ixp.add_member(b);

    const char payload[] = "GET / HTTP/1.1\r\nHost: bench.example.com\r\n";
    std::vector<std::byte> data(sizeof payload - 1);
    std::memcpy(data.data(), payload, data.size());
    sflow::FrameSpec spec;
    spec.src_mac = fabric::Ixp::port_mac_for(net::Asn{100});
    spec.dst_mac = fabric::Ixp::port_mac_for(net::Asn{200});
    spec.src_ip = net::Ipv4Addr{10, 0, 0, 1};
    spec.dst_ip = net::Ipv4Addr{10, 0, 0, 2};
    spec.src_port = 43210;
    spec.dst_port = 80;
    sflow::FlowSample sample;
    sample.sampling_rate = 16384;
    sample.frame = sflow::build_tcp_frame(spec, data, 600);

    const classify::PeeringFilter filter{ixp, 45};
    classify::FilterCounters counters;
    classify::TrafficDissector dissector;
    // Samples are staged and ingested in the engine's batch size, the
    // way WeekShard::observe_batch feeds the dissector.
    constexpr std::size_t kBatch = 512;
    const std::vector<sflow::FlowSample> samples(kBatch, sample);
    classify::FrameBatch batch;
    batch.reserve(kBatch);
    suite.run_case("filter_and_dissect", 5'000'000,
                   [&](std::uint64_t iters, int) {
                     for (std::uint64_t at = 0; at < iters; at += kBatch) {
                       const auto n = static_cast<std::size_t>(
                           std::min<std::uint64_t>(kBatch, iters - at));
                       batch.clear();
                       filter.stage({samples.data(), n}, at, counters, batch);
                       dissector.ingest(batch);
                     }
                     return iters;
                   });
    bench::keep(dissector.summarize());
  }
  return 0;
}
