// Snapshot-store microbenchmarks: what durability costs on the weekly
// path. One binary emits the ixpscope-bench-v1 JSON trajectory:
//
//   build/bench/micro_store --json BENCH_store.json
//
// Cases:
//   crc32c_1mib            raw checksum throughput (the per-byte floor
//                          every save and open pays twice)
//   encode_snapshot        build a sealed two-section image from two
//                          random payloads (512 + 128 KiB)
//   validate_image         full open-time validation of that image —
//                          framing walk + every section CRC
//   commit_open_roundtrip  the whole durable cycle against a real
//                          filesystem: temp write + fsync + rename, then
//                          mmap + validate via a reused SnapshotFile
//                          handle (fsync-bound, so iters are low)
//   encode_report          SnapshotCodec::encode_report of a bench-scale
//                          (1/256) week 45 report: ~20K servers with
//                          their names and URIs, several MB of output,
//                          not a cache-resident fixture
//   decode_report          SnapshotCodec::decode_report of those bytes,
//                          the per-week cost of a resume after its CRCs
//
// Items/sec means bytes for every case but the round trip (encoded
// report bytes for the two report cases) and completed round-trip cycles
// for it. The report fixture is analysed once, untimed, at --threads.
//
// The binary exits nonzero when the store's allocation budget regresses:
// encode_snapshot must build the sealed image in a single reserve (the
// pre-fix encoder reallocated its way to ~1800 allocations per image),
// validate_image must be allocation-free once its scratch is warm, and
// the roundtrip must stay under the pre-fix 3 allocations per cycle.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "bench_json.hpp"
#include "core/parallel_analyzer.hpp"
#include "store/crc32c.hpp"
#include "store/snapshot_codec.hpp"
#include "store/snapshot_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

std::vector<std::byte> random_payload(std::size_t size, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::byte> bytes(size);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.next_below(256));
  return bytes;
}

/// Week 45's report at bench scale (1/256). Building the model and
/// analysing the week take seconds, once, before either report case
/// runs; the model is freed before they do.
core::WeeklyReport bench_scale_report(int threads) {
  constexpr int kWeek = 45;
  const analysis::Study study{gen::ScaleConfig::bench(1.0 / 256.0)};
  core::VantagePoint vantage = study.vantage();
  core::ParallelOptions options;
  options.threads = static_cast<unsigned>(threads);
  core::ParallelAnalyzer analyzer{vantage, options};
  gen::WeekSource source = study.week(kWeek);
  return analyzer.analyze(kWeek, source, study.fetcher(kWeek));
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"store", args};

  // Two random payloads of fixed size. The split follows the shard +
  // report files of format v4 and stays so that BENCH_store.json remains
  // comparable; v5 snapshots hold a report and a provenance record only.
  const auto shard_payload = random_payload(512 * 1024, 0x5704a6e1);
  const auto report_payload = random_payload(128 * 1024, 0x2e90c57b);
  const std::vector<store::Section> sections = {
      {store::kShardSection, shard_payload},
      {store::kReportSection, report_payload},
  };
  const auto image = store::encode_snapshot(sections);

  const auto crc_input = random_payload(1024 * 1024, 0xc4c32c00);
  suite.run_case("crc32c_1mib", 400, [&](std::uint64_t iters, int) {
    std::uint64_t bytes = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      bench::keep(store::crc32c(crc_input));
      bytes += crc_input.size();
    }
    return bytes;
  });

  suite.run_case("encode_snapshot", 200, [&](std::uint64_t iters, int) {
    std::uint64_t bytes = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      const auto encoded = store::encode_snapshot(sections);
      bench::keep(encoded.size());
      bytes += encoded.size();
    }
    return bytes;
  });

  // The scratch lives outside the case and is warmed by one untimed call,
  // so the allocation gate holds even at --iters 1 (the smoke run), where
  // the harness's proportional warmup pass rounds down to zero.
  std::vector<store::SectionView> views;
  bench::keep(static_cast<int>(store::validate_image(image, &views)));
  suite.run_case("validate_image", 200, [&](std::uint64_t iters, int) {
    std::uint64_t bytes = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      const auto error = store::validate_image(image, &views);
      bench::keep(static_cast<int>(error));
      bytes += image.size();
    }
    return bytes;
  });

  {
    const auto path = (std::filesystem::temp_directory_path() /
                       "ixpscope_micro_store.snap")
                          .string();
    store::SnapshotFile file;  // reused across cycles: scratch stays warm
    suite.run_case("commit_open_roundtrip", 8, [&](std::uint64_t iters, int) {
      std::uint64_t cycles = 0;
      std::string error;
      for (std::uint64_t it = 0; it < iters; ++it) {
        if (!store::commit_snapshot(path, image, &error)) {
          std::fprintf(stderr, "commit failed: %s\n", error.c_str());
          break;
        }
        bench::keep(file.reopen(path));
        if (!file.ok()) break;
        ++cycles;
      }
      return cycles;
    });
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }

  {
    const core::WeeklyReport report = bench_scale_report(args.threads);
    const auto report_bytes = store::SnapshotCodec::encode_report(report);

    suite.run_case("encode_report", 20, [&](std::uint64_t iters, int) {
      std::uint64_t bytes = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        const auto encoded = store::SnapshotCodec::encode_report(report);
        bench::keep(encoded.size());
        bytes += encoded.size();
      }
      return bytes;
    });
    suite.run_case("decode_report", 20, [&](std::uint64_t iters, int) {
      std::uint64_t bytes = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        const auto decoded = store::SnapshotCodec::decode_report(report_bytes);
        bench::keep(decoded.has_value());
        bytes += report_bytes.size();
      }
      return bytes;
    });
  }

  suite.flush();

  // Allocation-budget gates (items are bytes for encode/validate, so the
  // per-run counts come from allocs/iters rather than allocs/item).
  double encode_allocs_per_run = -1.0;
  double validate_allocs_per_run = -1.0;
  double roundtrip_allocs = -1.0;
  for (const auto& result : suite.results()) {
    const double per_run =
        result.iters > 0 ? static_cast<double>(result.allocs) /
                               static_cast<double>(result.iters)
                         : 0.0;
    if (result.name == "encode_snapshot") encode_allocs_per_run = per_run;
    if (result.name == "validate_image") validate_allocs_per_run = per_run;
    if (result.name == "commit_open_roundtrip")
      roundtrip_allocs = result.allocs_per_item();
  }
  int failures = 0;
  // One reserve for the whole image; anything past 1.5 means the encoder
  // is growing the buffer again.
  if (encode_allocs_per_run > 1.5) {
    std::fprintf(stderr,
                 "FAIL: encode_snapshot at %.2f allocs/run "
                 "(expected 1: single pre-sized reserve)\n",
                 encode_allocs_per_run);
    ++failures;
  }
  // The section-table scratch is reused across runs after warmup.
  if (validate_allocs_per_run > 0.5) {
    std::fprintf(stderr,
                 "FAIL: validate_image at %.2f allocs/run "
                 "(expected 0: reused scratch)\n",
                 validate_allocs_per_run);
    ++failures;
  }
  // Pre-fix budget was 3/cycle (fresh SnapshotFile per open); the reused
  // handle leaves only the commit's temp-path string.
  if (roundtrip_allocs < 0.0 || roundtrip_allocs > 2.5) {
    std::fprintf(stderr,
                 "FAIL: commit_open_roundtrip at %.2f allocs/cycle "
                 "(expected < 2.5 with a reused SnapshotFile)\n",
                 roundtrip_allocs);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
