// The mapped-ingest contract:
//   - MappedTrace opens real files (mmap or fallback) and classifies
//     open failures distinctly (missing / too short / bad header);
//   - TraceSegmenter's segments tile the trace body exactly, every
//     later segment starting on a plausible record boundary;
//   - a set of TraceCursors walking the segments delivers exactly the
//     samples the streamed oracle (tests/support) delivers under a
//     lenient policy — same bytes, same order, same offset-derived
//     stream keys — and their per-segment ReaderStats sum field-for-field
//     to the oracle's whole-file taxonomy, on clean traces AND on every
//     FaultInjector scenario. The oracle is an independent, istream-based
//     implementation of the same failure model, so this is a
//     differential check of the cursor's resync and accounting.
// Runs under both the asan (`faults`) and tsan labels.
#include "sflow/mapped_trace.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sflow/fault_injector.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"
#include "support/streamed_trace_oracle.hpp"

namespace ixp::sflow {
namespace {

using net::Ipv4Addr;

FlowSample make_sample(std::uint32_t seq) {
  FrameSpec spec;
  spec.src_mac = MacAddr::from_id(1);
  spec.dst_mac = MacAddr::from_id(2);
  spec.src_ip = Ipv4Addr{10, 0, 0, 1};
  spec.dst_ip = Ipv4Addr{10, 0, 0, 2};
  spec.src_port = 80;
  spec.dst_port = 40000;
  FlowSample sample;
  sample.sequence = seq;
  sample.sampling_rate = 16384;
  const char payload[] = "HTTP/1.1 200 OK\r\n";
  std::vector<std::byte> data(sizeof payload - 1);
  std::memcpy(data.data(), payload, data.size());
  sample.frame = build_tcp_frame(spec, data, 1000 + seq % 400);
  return sample;
}

std::vector<std::byte> build_trace(std::uint32_t samples, std::size_t batch) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{172, 16, 0, 1}, batch};
    for (std::uint32_t i = 0; i < samples; ++i) writer.write(make_sample(i));
  }
  const std::string raw = buffer.str();
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

/// Everything one ingest path produced, in delivery order.
struct Walk {
  std::vector<FlowSample> samples;
  std::vector<std::uint64_t> keys;  ///< stream_seq_key per delivered record
  ReaderStats stats;
};

Walk streamed_walk(const std::vector<std::byte>& bytes) {
  std::stringstream stream{
      std::string{reinterpret_cast<const char*>(bytes.data()), bytes.size()}};
  StreamedTraceOracle reader{stream, ReadPolicy::lenient()};
  Walk walk;
  std::vector<FlowSample> record;
  std::uint64_t key = 0;
  while (reader.read_record(record, key) > 0) {
    walk.keys.push_back(key);
    for (const auto& sample : record) walk.samples.push_back(sample);
  }
  EXPECT_TRUE(reader.ok());
  walk.stats = reader.stats();
  return walk;
}

/// Walks every segment of a `want`-way split in segment order with a
/// fresh-reset cursor, concatenating deliveries and summing stats.
Walk mapped_walk(const MappedTrace& trace, std::size_t want) {
  Walk walk;
  const auto segments = TraceSegmenter::split(trace.bytes(), want);
  TraceCursor cursor{trace.bytes(), {}};
  for (const auto& segment : segments) {
    cursor.reset(trace.bytes(), segment);
    std::uint64_t key = 0;
    for (auto batch = cursor.read_record(key); !batch.empty();
         batch = cursor.read_record(key)) {
      walk.keys.push_back(key);
      for (const auto& sample : batch) walk.samples.push_back(sample);
    }
    EXPECT_TRUE(cursor.ok());
    walk.stats += cursor.stats();
  }
  return walk;
}

void expect_sample_equal(const FlowSample& a, const FlowSample& b,
                         std::size_t at) {
  SCOPED_TRACE("sample " + std::to_string(at));
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.source_port, b.source_port);
  EXPECT_EQ(a.sampling_rate, b.sampling_rate);
  EXPECT_EQ(a.frame.frame_length, b.frame.frame_length);
  ASSERT_EQ(a.frame.captured, b.frame.captured);
  EXPECT_EQ(std::memcmp(a.frame.data.data(), b.frame.data.data(),
                        a.frame.captured),
            0);
}

void expect_walks_equal(const Walk& streamed, const Walk& mapped) {
  EXPECT_EQ(streamed.keys, mapped.keys);
  ASSERT_EQ(streamed.samples.size(), mapped.samples.size());
  for (std::size_t i = 0; i < streamed.samples.size(); ++i)
    expect_sample_equal(streamed.samples[i], mapped.samples[i], i);
  EXPECT_EQ(streamed.stats, mapped.stats);
}

/// RAII temp file under the system temp dir.
struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  void write(std::span<const std::byte> bytes) const {
    std::ofstream out{path, std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
};

TEST(MappedTrace, MissingFileIsOpenFailed) {
  const auto trace =
      MappedTrace::open("/nonexistent/ixpscope-no-such-trace.bin");
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.error(), MappedTrace::Error::kOpenFailed);
  EXPECT_TRUE(trace.bytes().empty());
}

TEST(MappedTrace, ShortFileIsTooShort) {
  const TempFile file{"ixpscope_mapped_short.trace"};
  const std::array<std::byte, 5> stub{};
  file.write(stub);
  const auto trace = MappedTrace::open(file.path.string());
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.error(), MappedTrace::Error::kTooShort);
}

TEST(MappedTrace, WrongMagicIsBadHeader) {
  const TempFile file{"ixpscope_mapped_badmagic.trace"};
  std::vector<std::byte> bytes(32, std::byte{0x41});
  file.write(bytes);
  const auto trace = MappedTrace::open(file.path.string());
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.error(), MappedTrace::Error::kBadHeader);
}

TEST(MappedTrace, OpensRealFileAndMatchesAdoptedImage) {
  const auto bytes = build_trace(64, 8);
  const TempFile file{"ixpscope_mapped_roundtrip.trace"};
  file.write(bytes);

  const auto from_file = MappedTrace::open(file.path.string());
  ASSERT_TRUE(from_file.ok());
  EXPECT_EQ(from_file.size(), bytes.size());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(from_file.is_mapped());
#endif

  auto copy = bytes;
  const auto adopted = MappedTrace::adopt(std::move(copy));
  ASSERT_TRUE(adopted.ok());
  EXPECT_FALSE(adopted.is_mapped());
  ASSERT_EQ(adopted.size(), from_file.size());
  EXPECT_EQ(std::memcmp(from_file.bytes().data(), adopted.bytes().data(),
                        bytes.size()),
            0);
}

TEST(MappedTrace, AdoptValidatesHeader) {
  EXPECT_EQ(MappedTrace::adopt({}).error(), MappedTrace::Error::kTooShort);
  EXPECT_EQ(MappedTrace::adopt(std::vector<std::byte>(8, std::byte{1})).error(),
            MappedTrace::Error::kTooShort);
  EXPECT_EQ(
      MappedTrace::adopt(std::vector<std::byte>(64, std::byte{0x7f})).error(),
      MappedTrace::Error::kBadHeader);
  EXPECT_TRUE(MappedTrace::adopt(build_trace(4, 2)).ok());
}

TEST(MappedTrace, MoveTransfersTheImage) {
  auto trace = MappedTrace::adopt(build_trace(16, 4));
  ASSERT_TRUE(trace.ok());
  const std::size_t size = trace.size();
  MappedTrace moved = std::move(trace);
  EXPECT_TRUE(moved.ok());
  EXPECT_EQ(moved.size(), size);
  EXPECT_FALSE(trace.ok());  // NOLINT(bugprone-use-after-move): post-move probe
}

TEST(TraceSegmenter, SegmentsTileTheBodyOnPlausibleBoundaries) {
  const auto bytes = build_trace(200, 5);  // 40 records to cut between
  const auto trace = MappedTrace::adopt(bytes);
  ASSERT_TRUE(trace.ok());
  Datagram probe;
  for (const std::size_t want : {1u, 2u, 3u, 4u, 8u, 16u}) {
    SCOPED_TRACE("want " + std::to_string(want));
    const auto segments = TraceSegmenter::split(trace.bytes(), want);
    ASSERT_FALSE(segments.empty());
    EXPECT_LE(segments.size(), want);
    EXPECT_EQ(segments.front().begin, kTraceHeaderBytes);
    EXPECT_EQ(segments.back().end, bytes.size());
    for (std::size_t i = 0; i + 1 < segments.size(); ++i)
      EXPECT_EQ(segments[i].end, segments[i + 1].begin);
    for (std::size_t i = 1; i < segments.size(); ++i)
      EXPECT_TRUE(plausible_record_at(trace.bytes(), segments[i].begin, probe));
  }
}

TEST(TraceSegmenter, TinyTraceCollapsesToOneSegment) {
  const auto bytes = build_trace(3, 8);  // a single record
  const auto trace = MappedTrace::adopt(bytes);
  ASSERT_TRUE(trace.ok());
  const auto segments = TraceSegmenter::split(trace.bytes(), 8);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].begin, kTraceHeaderBytes);
  EXPECT_EQ(segments[0].end, bytes.size());
}

TEST(TraceCursor, CleanTraceMatchesStreamedReader) {
  const auto bytes = build_trace(500, 7);
  const auto trace = MappedTrace::adopt(bytes);
  ASSERT_TRUE(trace.ok());
  const Walk streamed = streamed_walk(bytes);
  EXPECT_EQ(streamed.samples.size(), 500u);
  for (const std::size_t want : {1u, 2u, 8u, 16u}) {
    SCOPED_TRACE("want " + std::to_string(want));
    expect_walks_equal(streamed, mapped_walk(trace, want));
  }
}

TEST(TraceCursor, StreamKeysStrictlyIncreaseAcrossSegments) {
  const auto bytes = build_trace(300, 6);
  const auto trace = MappedTrace::adopt(bytes);
  ASSERT_TRUE(trace.ok());
  const Walk walk = mapped_walk(trace, 8);
  ASSERT_FALSE(walk.keys.empty());
  for (std::size_t i = 1; i < walk.keys.size(); ++i)
    EXPECT_LT(walk.keys[i - 1], walk.keys[i]) << "record " << i;
}

TEST(TraceCursor, StrictBudgetClearsOkOnCorruptRecord) {
  auto bytes = build_trace(40, 4);
  // Break the version word of a mid-trace record: its length prefix stays
  // valid so the cursor commits to decoding it, and the decode fails.
  Datagram probe;
  const std::size_t victim =
      scan_for_record(std::span<const std::byte>{bytes}, bytes.size() / 2,
                      probe);
  ASSERT_LT(victim, bytes.size());
  bytes[victim + 4] ^= std::byte{0xff};
  const auto trace = MappedTrace::adopt(std::move(bytes));
  ASSERT_TRUE(trace.ok());
  TraceCursor cursor{trace.bytes(),
                     {kTraceHeaderBytes, trace.size()},
                     ReadPolicy::strict()};
  std::uint64_t key = 0;
  while (!cursor.read_record(key).empty()) {
  }
  EXPECT_FALSE(cursor.ok());
  EXPECT_GT(cursor.stats().errors(), 0u);
}

// The corruption matrix parity: every FaultInjector scenario, several
// seeds, streamed-vs-mapped equality of deliveries, keys, and summed
// taxonomy, plus the exact byte-accounting invariant on the sum.
TEST(TraceCursor, CorruptionMatrixParityWithStreamedReader) {
  const std::vector<std::byte> intact = build_trace(/*samples=*/140,
                                                    /*batch=*/7);
  struct Named {
    const char* name;
    FaultMix mix;
  };
  FaultMix bit_flip, truncate, bogus, duplicate, reorder, eof, everything;
  bit_flip.bit_flip = 0.3;
  truncate.truncate = 0.3;
  bogus.bogus_length = 0.3;
  duplicate.duplicate = 0.3;
  reorder.reorder = 0.3;
  eof.mid_file_eof = 0.1;
  everything = FaultMix{0.2, 0.2, 0.2, 0.2, 0.2, 0.05};
  const Named matrix[] = {
      {"bit_flip", bit_flip},   {"truncate", truncate},
      {"bogus_length", bogus},  {"duplicate", duplicate},
      {"reorder", reorder},     {"mid_file_eof", eof},
      {"default_mix", FaultMix::default_mix()},
      {"everything", everything},
  };

  for (const auto& [name, mix] : matrix) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1337ULL}) {
      SCOPED_TRACE(std::string{name} + " seed " + std::to_string(seed));
      const FaultInjector injector{seed, mix};
      std::vector<std::byte> corrupted;
      const auto report = injector.corrupt(intact, corrupted);
      ASSERT_TRUE(report);

      const Walk streamed = streamed_walk(corrupted);
      const auto trace = MappedTrace::adopt(corrupted);
      ASSERT_TRUE(trace.ok());
      for (const std::size_t want : {1u, 8u}) {
        SCOPED_TRACE("want " + std::to_string(want));
        const Walk mapped = mapped_walk(trace, want);
        expect_walks_equal(streamed, mapped);
        EXPECT_EQ(kTraceHeaderBytes + mapped.stats.bytes_delivered +
                      mapped.stats.bytes_skipped,
                  corrupted.size());
      }
    }
  }
}

}  // namespace
}  // namespace ixp::sflow
