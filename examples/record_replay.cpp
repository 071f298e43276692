// record_replay: persist a week of sFlow to a trace file, then run the
// measurement pipeline from the recording — the generate-once /
// analyze-many workflow (and the ingestion path for converted real
// collector dumps).
//
//   ./record_replay [trace_path=/tmp/ixpscope_week45.trace]
#include <fstream>
#include <iostream>

#include "analysis/study.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace ixp;
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/ixpscope_week45.trace";

  const analysis::Study study{gen::ScaleConfig::test()};

  // --- record ---------------------------------------------------------------
  {
    std::ofstream out{path, std::ios::binary};
    if (!out) {
      std::cerr << "cannot open " << path << " for writing\n";
      return 1;
    }
    sflow::TraceWriter writer{out, net::Ipv4Addr{172, 16, 0, 1}, 128};
    study.workload().generate_week(
        45, [&](const sflow::FlowSample& s) { writer.write(s); });
    writer.flush();
    std::cout << "recorded " << util::with_thousands(writer.samples_written())
              << " samples in " << writer.datagrams_written()
              << " datagrams -> " << path << "\n";
  }

  // --- replay ---------------------------------------------------------------
  const sflow::MappedTrace trace = sflow::MappedTrace::open(path);
  if (!trace.ok()) {
    std::cerr << path << ": "
              << sflow::MappedTrace::error_name(trace.error()) << "\n";
    return 1;
  }

  core::VantagePoint vantage = study.vantage();
  core::WeekSession session = vantage.open_week(45);
  std::uint64_t replayed = 0;
  ingest::MappedSource source{trace, sflow::ReadPolicy::lenient()};
  ingest::SampleBatch batch;
  while (source.next_batch(batch) == ingest::SourceStatus::kBatch) {
    session.observe_batch(batch.samples);
    replayed += batch.samples.size();
  }
  const auto report = session.finish(study.fetcher(45));

  std::cout << "replayed " << util::with_thousands(replayed) << " samples ("
            << (source.stats().degraded() ? "DAMAGED" : "clean") << ")\n";
  std::cout << "pipeline on the recording: "
            << util::with_thousands(report.peering_ips) << " IPs, "
            << util::with_thousands(report.server_ips) << " server IPs, "
            << util::bytes(report.peering_bytes()) << " estimated\n";
  return 0;
}
