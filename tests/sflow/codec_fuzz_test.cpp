// Fuzz-style robustness: the datagram decoder and the shipped trace
// decoder (MappedTrace + TraceSegmenter + TraceCursor) must survive
// arbitrary mutations of valid inputs — rejecting cleanly (nullopt /
// kBadHeader), never crashing, never over-reading, and accounting for
// every byte of a mutated trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sflow/datagram.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"
#include "util/rng.hpp"

namespace ixp::sflow {
namespace {

Datagram valid_datagram() {
  Datagram d;
  d.agent = net::Ipv4Addr{10, 0, 0, 1};
  d.sequence = 3;
  for (std::uint32_t i = 0; i < 4; ++i) {
    FlowSample sample;
    sample.sequence = i;
    sample.sampling_rate = 16384;
    sample.frame.frame_length = 900;
    sample.frame.captured = 64;
    for (std::size_t b = 0; b < 64; ++b)
      sample.frame.data[b] = static_cast<std::byte>(b + i);
    d.samples.push_back(sample);
  }
  d.counters.push_back(CounterSample{1, 10, 20, 30, 40});
  return d;
}

class DatagramFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatagramFuzzTest, SingleByteMutationsNeverCrash) {
  util::Rng rng{GetParam()};
  const auto baseline = encode(valid_datagram());
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = baseline;
    const std::size_t at = rng.next_below(bytes.size());
    bytes[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
    const auto decoded = decode(bytes);
    if (!decoded) continue;  // rejected: fine
    // Accepted mutations must still be internally consistent.
    for (const auto& sample : decoded->samples)
      EXPECT_LE(sample.frame.captured, kCaptureBytes);
  }
}

TEST_P(DatagramFuzzTest, RandomBytesAreRejectedOrSane) {
  util::Rng rng{GetParam() ^ 0x9999};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::byte> junk(rng.next_below(300));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    const auto decoded = decode(junk);
    if (decoded) {
      for (const auto& sample : decoded->samples)
        EXPECT_LE(sample.frame.captured, kCaptureBytes);
    }
  }
}

TEST_P(DatagramFuzzTest, EveryTruncationRejected) {
  (void)GetParam();
  const auto bytes = encode(valid_datagram());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode(std::span<const std::byte>{bytes}.first(cut)))
        << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatagramFuzzTest,
                         ::testing::Values(11u, 22u, 33u));

TEST(TraceFuzz, MutatedTracesNeverDeliverOversizedFrames) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, net::Ipv4Addr{1, 1, 1, 1}, 4};
    Datagram d = valid_datagram();
    for (const auto& sample : d.samples)
      for (int k = 0; k < 3; ++k) writer.write(sample);
  }
  const std::string raw = buffer.str();
  std::vector<std::byte> baseline(raw.size());
  std::ranges::copy(std::as_bytes(std::span{raw}), baseline.begin());
  util::Rng rng{77};
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::byte> mutated = baseline;
    const std::size_t at = rng.next_below(mutated.size());
    mutated[at] = static_cast<std::byte>(rng.next_below(256));
    const auto trace = MappedTrace::adopt(std::move(mutated));
    if (!trace.ok()) {
      // Same size as the intact image, so only the header can be wrong.
      EXPECT_EQ(trace.error(), MappedTrace::Error::kBadHeader);
      EXPECT_LT(at, kTraceHeaderBytes);
      continue;
    }
    const std::uint64_t size = trace.size();
    for (const std::size_t want : {1u, 2u, 4u}) {
      SCOPED_TRACE("want " + std::to_string(want));
      const auto segments = TraceSegmenter::split(trace.bytes(), want);
      // The segments tile the body: contiguous, header to end of trace.
      ASSERT_FALSE(segments.empty());
      EXPECT_EQ(segments.front().begin, kTraceHeaderBytes);
      EXPECT_EQ(segments.back().end, size);
      for (std::size_t i = 0; i + 1 < segments.size(); ++i)
        EXPECT_EQ(segments[i].end, segments[i + 1].begin);

      ReaderStats total;
      std::uint64_t delivered = 0;
      for (const auto& segment : segments) {
        TraceCursor cursor{trace.bytes(), segment, ReadPolicy::lenient()};
        std::uint64_t key = 0;
        for (auto record = cursor.read_record(key); !record.empty();
             record = cursor.read_record(key)) {
          for (const auto& sample : record)
            EXPECT_LE(sample.frame.captured, kCaptureBytes);
          delivered += record.size();
        }
        EXPECT_TRUE(cursor.ok());
        total += cursor.stats();
      }
      EXPECT_EQ(size, kTraceHeaderBytes + total.bytes_delivered +
                          total.bytes_skipped);
      EXPECT_EQ(delivered, total.samples);
      EXPECT_LE(delivered, 12u);  // never more samples than were written
    }
  }
}

}  // namespace
}  // namespace ixp::sflow
