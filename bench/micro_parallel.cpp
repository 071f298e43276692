// Micro-benchmark: the sharded parallel week-analysis engine.
//
// Builds the test-scale world once, records week 45's sample stream into
// memory, replicates it a few times so worker ingest dominates the serial
// finish phase, and runs ParallelAnalyzer's span overload across thread
// counts. Per the determinism contract every thread count produces the
// same report, so the only thing that varies is wall-clock.
//
// With --threads N the benchmark measures that single thread count;
// without it, it sweeps 1/2/4/8. Expect near-linear scaling up to the
// physical core count; on a 1-core machine all thread counts collapse
// onto the serial time (plus a little queueing overhead), which is the
// honest result there.
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "bench_json.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"

namespace {

using namespace ixp;

constexpr int kWeek = 45;
constexpr std::size_t kReplicas = 6;  // amplify ingest vs. finish

/// kReplicas copies of week 45's stream, back to back.
std::vector<sflow::FlowSample> replicated_week(const analysis::Study& study) {
  std::vector<sflow::FlowSample> week;
  study.workload().generate_week(
      kWeek, [&](const sflow::FlowSample& s) { week.push_back(s); });
  std::vector<sflow::FlowSample> samples;
  samples.reserve(week.size() * kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r)
    samples.insert(samples.end(), week.begin(), week.end());
  return samples;
}

void bench_week(bench::Suite& suite, const analysis::Study& study,
                const std::vector<sflow::FlowSample>& samples,
                unsigned threads) {
  core::VantagePoint vantage = study.vantage();
  core::ParallelOptions options;
  options.threads = threads;
  core::ParallelAnalyzer analyzer{vantage, options};
  // No active measurement: the benchmark isolates the ingest fan-out.
  const classify::ChainFetcher no_probe =
      [](net::Ipv4Addr, int) { return std::vector<x509::CertificateChain>{}; };

  suite.run_case("parallel_week/t" + std::to_string(threads), 3,
                 [&](std::uint64_t iters, int) {
                   for (std::uint64_t it = 0; it < iters; ++it) {
                     ingest::SpanSource source{samples, options.batch_size};
                     const auto report =
                         analyzer.analyze(kWeek, source, no_probe);
                     bench::keep(report.peering_ips);
                   }
                   return iters * samples.size();
                 });
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"parallel", args};
  const analysis::Study study{gen::ScaleConfig::test()};
  const std::vector<sflow::FlowSample> samples = replicated_week(study);

  if (args.threads > 1) {
    bench_week(suite, study, samples, 1);
    bench_week(suite, study, samples, static_cast<unsigned>(args.threads));
  } else {
    for (const unsigned threads : {1u, 2u, 4u, 8u})
      bench_week(suite, study, samples, threads);
  }
  return 0;
}
