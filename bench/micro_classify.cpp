// Micro-benchmarks: the per-sample measurement hot path — HTTP string
// matching and the filter+dissect pipeline. (micro_hotpath carries the
// batch-level dissect, LaneFlags and shard-merge cases.)
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "classify/dissector.hpp"
#include "classify/http_matcher.hpp"
#include "classify/peering_filter.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

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
