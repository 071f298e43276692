// Trace ingest throughput: serial vs segment-parallel TraceCursor decode
// of a mapped trace. One binary emits the comparison as an
// ixpscope-bench-v1 JSON trajectory:
//
//   build/bench/micro_ingest --json BENCH_ingest.json
//
// Cases:
//   mapped_serial          one TraceCursor walking the whole mapped body;
//                          steady-state expectation: 0 allocs/sample
//   mapped_parallel_N      TraceSegmenter splits the span 2N ways and N
//                          threads claim and decode segments concurrently
//
// The parallel cases report wall-clock samples/sec, so on a single-core
// machine they collapse to mapped_serial plus thread overhead — the
// scaling claim needs real cores, the zero-allocation claim does not.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

/// ~83 MB of records: a working set well past the fixtures' old 6 MB,
/// like a bench-scale week's ~2.6M samples.
constexpr std::size_t kPoolSamples = std::size_t{1} << 20;

/// A capture size in a real week's proportions: 42 B 34%, 54 B 45%,
/// 60..127 B 6%, 128 B 15%.
std::uint16_t week_capture(util::Rng& rng) {
  const std::uint64_t u = rng.next_below(100);
  if (u < 34) return 42;
  if (u < 79) return 54;
  if (u < 85) return static_cast<std::uint16_t>(60 + rng.next_below(68));
  return 128;
}

/// One week's shape without the generator: random capture bytes, sized
/// in the week's mix so that decode cost matches production.
std::string build_trace() {
  util::Rng rng{0x16e5700d};
  std::ostringstream raw;
  sflow::TraceWriter writer{raw, net::Ipv4Addr{172, 16, 0, 1}, 128};
  sflow::FlowSample sample;
  for (std::size_t i = 0; i < kPoolSamples; ++i) {
    sample.sequence = static_cast<std::uint32_t>(i);
    sample.source_port = static_cast<std::uint32_t>(rng.next_below(512));
    sample.sampling_rate = 16384;
    sample.frame.frame_length = static_cast<std::uint16_t>(600);
    sample.frame.captured = week_capture(rng);
    for (std::size_t b = 0; b < sample.frame.captured; ++b)
      sample.frame.data[b] = static_cast<std::byte>(rng.next_below(256));
    writer.write(sample);
  }
  writer.flush();
  return raw.str();
}

std::uint64_t mapped_parallel_pass(const sflow::MappedTrace& trace,
                                   unsigned threads) {
  const auto segments =
      sflow::TraceSegmenter::split(trace.bytes(), std::size_t{threads} * 2);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      std::uint64_t delivered = 0;
      sflow::TraceCursor cursor{trace.bytes(), {}};
      for (std::size_t s = next.fetch_add(1); s < segments.size();
           s = next.fetch_add(1)) {
        cursor.reset(trace.bytes(), segments[s]);
        std::uint64_t seq_base = 0;
        for (auto batch = cursor.read_record(seq_base); !batch.empty();
             batch = cursor.read_record(seq_base)) {
          for (const auto& sample : batch) bench::keep(sample.sampling_rate);
          delivered += batch.size();
        }
      }
      total.fetch_add(delivered);
    });
  }
  for (auto& worker : workers) worker.join();
  return total.load();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"ingest", args};

  const std::string trace = build_trace();

  // The mapped cases run against a real mmap when the filesystem allows
  // it (a temp file round-trip), falling back to the adopted in-memory
  // image — the decode path is identical either way.
  sflow::MappedTrace mapped;
  const auto tmp =
      std::filesystem::temp_directory_path() / "ixpscope_micro_ingest.trace";
  {
    std::ofstream out{tmp, std::ios::binary};
    if (out) {
      out.write(trace.data(), static_cast<std::streamsize>(trace.size()));
    }
  }
  mapped = sflow::MappedTrace::open(tmp.string());
  if (!mapped.ok()) {
    std::vector<std::byte> bytes(trace.size());
    std::memcpy(bytes.data(), trace.data(), bytes.size());
    mapped = sflow::MappedTrace::adopt(std::move(bytes));
  }

  {
    sflow::TraceCursor cursor{mapped.bytes(), {}};
    const sflow::TraceSegment whole{sflow::kTraceHeaderBytes, mapped.size()};
    suite.run_case("mapped_serial", 8, [&](std::uint64_t iters, int) {
      std::uint64_t delivered = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        cursor.reset(mapped.bytes(), whole);
        std::uint64_t seq_base = 0;
        for (auto batch = cursor.read_record(seq_base); !batch.empty();
             batch = cursor.read_record(seq_base)) {
          for (const auto& sample : batch) bench::keep(sample.sampling_rate);
          delivered += batch.size();
        }
      }
      return delivered;
    });
  }

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    suite.run_case("mapped_parallel_" + std::to_string(threads), 8,
                   [&](std::uint64_t iters, int) {
                     std::uint64_t delivered = 0;
                     for (std::uint64_t it = 0; it < iters; ++it)
                       delivered += mapped_parallel_pass(mapped, threads);
                     return delivered;
                   });
  }

  std::error_code ec;
  std::filesystem::remove(tmp, ec);

  const auto& results = suite.results();
  const double mapped_serial = results.front().items_per_sec();
  const double mapped_par8 = results.back().items_per_sec();
  if (mapped_serial > 0.0) {
    std::printf(
        "mapped_parallel_8 vs mapped_serial: %.2fx  "
        "(mapped_serial allocs/item: %.4f, hardware threads available: %u)\n",
        mapped_par8 / mapped_serial, results.front().allocs_per_item(),
        std::thread::hardware_concurrency());
  }
  return 0;
}
