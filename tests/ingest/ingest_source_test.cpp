// Unit tests for the IngestSource adapters — the single API every sample
// stream now enters the engine through. The properties pinned here are
// the ones the analyzer's determinism rests on:
//   * keys: every adapter hands out the exact stream keys the equivalent
//     single-stream walk would (running indices in memory, offset-derived
//     stream_seq_key for traces — checked against the streamed oracle);
//   * split(): the sub-sources partition the remaining stream — same
//     batches, same keys, nothing duplicated, nothing lost;
//   * accounting: a MappedSource surfaces the exact byte taxonomy, and
//     its per-segment stats sum to it.
#include "ingest/ingest_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "sflow/fault_injector.hpp"
#include "sflow/frame.hpp"
#include "sflow/trace.hpp"
#include "support/streamed_trace_oracle.hpp"

namespace ixp::ingest {
namespace {

using net::Ipv4Addr;

sflow::FlowSample make_sample(std::uint32_t seq) {
  sflow::FrameSpec spec;
  spec.src_mac = sflow::MacAddr::from_id(1);
  spec.dst_mac = sflow::MacAddr::from_id(2);
  spec.src_ip = Ipv4Addr{10, 0, 0, 1};
  spec.dst_ip = Ipv4Addr{10, 0, 0, 2};
  spec.src_port = 80;
  spec.dst_port = 40000;
  sflow::FlowSample sample;
  sample.sequence = seq;
  sample.sampling_rate = 16384;
  const char payload[] = "HTTP/1.1 200 OK\r\n";
  std::vector<std::byte> data(sizeof payload - 1);
  std::memcpy(data.data(), payload, data.size());
  sample.frame = sflow::build_tcp_frame(spec, data, 1000 + seq % 400);
  return sample;
}

std::vector<sflow::FlowSample> make_samples(std::size_t n) {
  std::vector<sflow::FlowSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    samples.push_back(make_sample(static_cast<std::uint32_t>(i)));
  return samples;
}

/// Writes samples through TraceWriter and returns the full trace image.
std::vector<std::byte> record_trace(const std::vector<sflow::FlowSample>& samples,
                                    std::size_t batch = 7) {
  std::stringstream buffer;
  {
    sflow::TraceWriter writer{buffer, Ipv4Addr{172, 16, 0, 1}, batch};
    for (const auto& s : samples) writer.write(s);
  }
  const std::string raw = buffer.str();
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

/// Drains a source completely; every batch appended as (first_seq, count).
std::vector<std::pair<std::uint64_t, std::size_t>> drain(IngestSource& source) {
  std::vector<std::pair<std::uint64_t, std::size_t>> batches;
  SampleBatch batch;
  while (source.next_batch(batch) == SourceStatus::kBatch)
    batches.emplace_back(batch.first_seq, batch.samples.size());
  return batches;
}

TEST(SpanSource, BatchBoundariesAndKeys) {
  const auto samples = make_samples(10);
  SpanSource source{samples, /*batch_size=*/4};
  const auto batches = drain(source);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0], (std::pair<std::uint64_t, std::size_t>{0, 4}));
  EXPECT_EQ(batches[1], (std::pair<std::uint64_t, std::size_t>{4, 4}));
  EXPECT_EQ(batches[2], (std::pair<std::uint64_t, std::size_t>{8, 2}));
}

TEST(SpanSource, SplitPartitionsExactlyTheSerialBatches) {
  const auto samples = make_samples(103);
  for (const std::size_t want : {1u, 2u, 3u, 7u, 64u}) {
    SCOPED_TRACE("want=" + std::to_string(want));
    SpanSource serial{samples, 8};
    const auto expected = drain(serial);

    SpanSource parent{samples, 8};
    auto parts = parent.split(want);
    ASSERT_FALSE(parts.empty());
    EXPECT_LE(parts.size(), want);
    std::vector<std::pair<std::uint64_t, std::size_t>> combined;
    for (const auto& part : parts) {
      const auto batches = drain(*part);
      combined.insert(combined.end(), batches.begin(), batches.end());
    }
    // Sub-sources cut on batch boundaries: the union of their batches is
    // the serial batch list (order across parts is by construction).
    std::sort(combined.begin(), combined.end());
    EXPECT_EQ(combined, expected);
  }
}

TEST(SpanSource, SplitAfterPartialConsumptionCoversOnlyTheRemainder) {
  const auto samples = make_samples(40);
  SpanSource source{samples, 8};
  SampleBatch batch;
  ASSERT_EQ(source.next_batch(batch), SourceStatus::kBatch);  // consume [0,8)
  auto parts = source.split(4);
  ASSERT_FALSE(parts.empty());
  std::vector<std::pair<std::uint64_t, std::size_t>> combined;
  for (const auto& part : parts) {
    const auto batches = drain(*part);
    combined.insert(combined.end(), batches.begin(), batches.end());
  }
  std::sort(combined.begin(), combined.end());
  const std::vector<std::pair<std::uint64_t, std::size_t>> expected{
      {8, 8}, {16, 8}, {24, 8}, {32, 8}};
  EXPECT_EQ(combined, expected);
}

/// A serial MappedSource walk and the streamed oracle over the same bytes
/// must deliver the same (key, count) batch list and the same exact
/// taxonomy — clean or damaged.
TEST(MappedSource, SerialWalkMatchesStreamedReader) {
  const auto clean = record_trace(make_samples(80));
  std::vector<std::byte> corrupted;
  {
    const sflow::FaultInjector injector{7};
    const auto report = injector.corrupt(clean, corrupted);
    ASSERT_TRUE(report);
    ASSERT_GT(report->faults(), 0u);
  }

  const std::vector<std::byte>* variants[] = {&clean, &corrupted};
  for (const auto* bytes : variants) {
    SCOPED_TRACE(bytes == &clean ? "clean" : "corrupted");
    std::stringstream in{std::string{
        reinterpret_cast<const char*>(bytes->data()), bytes->size()}};
    sflow::StreamedTraceOracle reader{in, sflow::ReadPolicy::lenient()};
    ASSERT_TRUE(reader.ok());
    std::vector<std::pair<std::uint64_t, std::size_t>> expected;
    std::vector<sflow::FlowSample> record;
    std::uint64_t key = 0;
    while (reader.read_record(record, key) > 0)
      expected.emplace_back(key, record.size());

    MappedSource mapped{std::span<const std::byte>{*bytes},
                        sflow::ReadPolicy::lenient()};
    const auto actual = drain(mapped);
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(mapped.stats(), reader.stats());
    EXPECT_TRUE(mapped.within_budget());
  }
}

TEST(MappedSource, SplitPartitionsStreamAndAccounting) {
  const auto clean = record_trace(make_samples(120));
  std::vector<std::byte> corrupted;
  {
    const sflow::FaultInjector injector{7};
    ASSERT_TRUE(injector.corrupt(clean, corrupted));
  }

  const std::vector<std::byte>* variants[] = {&clean, &corrupted};
  for (const auto* bytes : variants) {
    SCOPED_TRACE(bytes == &clean ? "clean" : "corrupted");
    MappedSource serial{std::span<const std::byte>{*bytes},
                        sflow::ReadPolicy::lenient()};
    auto expected = drain(serial);
    std::sort(expected.begin(), expected.end());

    MappedSource parent{std::span<const std::byte>{*bytes},
                        sflow::ReadPolicy::lenient()};
    auto parts = parent.split(4);
    ASSERT_FALSE(parts.empty());
    std::vector<std::pair<std::uint64_t, std::size_t>> combined;
    for (const auto& part : parts) {
      const auto batches = drain(*part);
      combined.insert(combined.end(), batches.begin(), batches.end());
    }
    std::sort(combined.begin(), combined.end());
    EXPECT_EQ(combined, expected);

    // Per-segment stats partition the whole-file taxonomy byte for byte.
    EXPECT_EQ(parent.stats(), serial.stats());
    ASSERT_EQ(parent.per_segment().size(), parent.segments().size());
    sflow::ReaderStats resummed;
    for (const auto& s : parent.per_segment()) resummed += s;
    EXPECT_EQ(resummed, parent.stats());
    EXPECT_EQ(sflow::kTraceHeaderBytes + resummed.bytes_delivered +
                  resummed.bytes_skipped,
              bytes->size());
  }
}

TEST(MappedSource, StrictPolicyClearsOkOnDamage) {
  // Deterministic damage (a seeded fault mix can come out all benign on a
  // small trace): stomp a byte range mid-file so at least one record is
  // undecodable no matter how the record boundaries fall.
  auto corrupted = record_trace(make_samples(60));
  ASSERT_GT(corrupted.size(), sflow::kTraceHeaderBytes + 300u);
  for (std::size_t i = 0; i < 200; ++i)
    corrupted[sflow::kTraceHeaderBytes + 64 + i] = std::byte{0xFF};

  MappedSource source{std::span<const std::byte>{corrupted},
                      sflow::ReadPolicy::strict()};
  (void)drain(source);
  EXPECT_GT(source.stats().errors(), 0u);
  EXPECT_FALSE(source.within_budget());
  EXPECT_FALSE(source.ok());

  MappedSource lenient{std::span<const std::byte>{corrupted},
                       sflow::ReadPolicy::lenient()};
  (void)drain(lenient);
  EXPECT_TRUE(lenient.ok());
}

}  // namespace
}  // namespace ixp::ingest
