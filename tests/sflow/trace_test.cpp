#include "sflow/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sflow/mapped_trace.hpp"
#include "sflow/trace_segment.hpp"

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

/// Adopts the bytes a TraceWriter left in `buffer` as a trace image.
MappedTrace adopt(const std::stringstream& buffer) {
  const std::string raw = buffer.str();
  std::vector<std::byte> bytes(raw.size());
  std::ranges::copy(std::as_bytes(std::span{raw}), bytes.begin());
  return MappedTrace::adopt(std::move(bytes));
}

/// One cursor over the whole trace body under `policy`.
TraceCursor whole_body(const MappedTrace& trace,
                       ReadPolicy policy = ReadPolicy::strict()) {
  return TraceCursor{trace.bytes(), {kTraceHeaderBytes, trace.size()}, policy};
}

/// Every sample the cursor delivers, in order.
std::vector<FlowSample> drain(TraceCursor& cursor) {
  std::vector<FlowSample> samples;
  std::uint64_t key = 0;
  for (auto record = cursor.read_record(key); !record.empty();
       record = cursor.read_record(key))
    samples.insert(samples.end(), record.begin(), record.end());
  return samples;
}

TEST(Trace, RoundTripsSamplesInOrder) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{172, 16, 0, 1}, /*batch=*/7};
    for (std::uint32_t i = 0; i < 100; ++i) writer.write(make_sample(i));
    EXPECT_EQ(writer.samples_written(), 100u);
  }  // destructor flushes the partial batch

  const auto trace = adopt(buffer);
  ASSERT_TRUE(trace.ok());
  auto cursor = whole_body(trace);
  const auto samples = drain(cursor);
  ASSERT_EQ(samples.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(samples[i].sequence, i);
    EXPECT_EQ(samples[i].sampling_rate, 16384u);
    EXPECT_EQ(samples[i].frame.frame_length, make_sample(i).frame.frame_length);
  }
  EXPECT_TRUE(cursor.ok());
}

TEST(Trace, FramesSurviveByteForByte) {
  std::stringstream buffer;
  const FlowSample original = make_sample(5);
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}};
    writer.write(original);
  }
  const auto trace = adopt(buffer);
  auto cursor = whole_body(trace);
  const auto samples = drain(cursor);
  ASSERT_EQ(samples.size(), 1u);
  const FlowSample& sample = samples.front();
  EXPECT_EQ(sample.frame.captured, original.frame.captured);
  EXPECT_EQ(std::memcmp(sample.frame.data.data(), original.frame.data.data(),
                        original.frame.captured),
            0);
  const auto parsed = parse_frame(sample.frame);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->is_tcp());
}

TEST(Trace, EmptyTraceDeliversNothing) {
  std::stringstream buffer;
  { TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}}; }
  const auto trace = adopt(buffer);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.size(), kTraceHeaderBytes);
  auto cursor = whole_body(trace);
  EXPECT_TRUE(drain(cursor).empty());
  EXPECT_TRUE(cursor.ok());
}

TEST(Trace, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTATRACEFILE.....";
  const auto trace = adopt(buffer);
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.error(), MappedTrace::Error::kBadHeader);
  EXPECT_TRUE(trace.bytes().empty());
}

TEST(Trace, RejectsWrongVersion) {
  std::stringstream buffer;
  buffer.write(kTraceMagic, sizeof kTraceMagic);
  const char version[4] = {0, 0, 0, 99};
  buffer.write(version, 4);
  const auto trace = adopt(buffer);
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.error(), MappedTrace::Error::kBadHeader);
}

TEST(Trace, TruncationDetected) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 4};
    for (std::uint32_t i = 0; i < 8; ++i) writer.write(make_sample(i));
  }
  const std::string full = buffer.str();
  // Cut into the middle of the second datagram.
  const std::stringstream cut{full.substr(0, full.size() - 30)};
  const auto trace = adopt(cut);
  ASSERT_TRUE(trace.ok());
  auto cursor = whole_body(trace);
  EXPECT_EQ(drain(cursor).size(), 4u);  // first datagram intact
  EXPECT_FALSE(cursor.ok());            // truncation reported
  EXPECT_EQ(cursor.stats().truncated, 1u);
}

TEST(Trace, ReadRecordDeliversDatagramsWithMonotoneKeys) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 4};
    for (std::uint32_t i = 0; i < 10; ++i) writer.write(make_sample(i));
  }
  const auto trace = adopt(buffer);
  auto cursor = whole_body(trace);
  std::uint64_t key = 0;
  std::uint64_t last_key = 0;
  std::uint32_t delivered = 0;
  for (auto record = cursor.read_record(key); !record.empty();
       record = cursor.read_record(key)) {
    EXPECT_EQ(record.size(), delivered < 8 ? 4u : 2u);  // batches of 4
    if (delivered > 0) {
      EXPECT_GT(key, last_key);
    }
    last_key = key;
    for (const auto& sample : record) EXPECT_EQ(sample.sequence, delivered++);
  }
  EXPECT_EQ(delivered, 10u);
  EXPECT_TRUE(cursor.ok());
}

TEST(Trace, FlushWritesPartialBatch) {
  std::stringstream buffer;
  TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 100};
  writer.write(make_sample(0));
  writer.flush();
  EXPECT_EQ(writer.datagrams_written(), 1u);
  writer.flush();  // idempotent when nothing is pending
  EXPECT_EQ(writer.datagrams_written(), 1u);
}

/// The trace image a writer must produce: the header, then per batch
/// `[u32 length][encode(Datagram)]` with the batch's running sequence and
/// uptime. TraceWriter encodes in place; this builds each Datagram whole.
std::string reference_image(Ipv4Addr agent, const std::vector<FlowSample>& samples,
                            std::size_t batch) {
  std::string image{kTraceMagic, sizeof kTraceMagic};
  image.append({0, 0, 0, static_cast<char>(kTraceVersion)});
  std::uint32_t sequence = 0;
  for (std::size_t at = 0; at < samples.size(); at += batch) {
    Datagram datagram;
    datagram.agent = agent;
    datagram.sequence = sequence++;
    datagram.uptime_ms = sequence * 1000;
    const std::size_t end = std::min(samples.size(), at + batch);
    datagram.samples.assign(samples.begin() + static_cast<std::ptrdiff_t>(at),
                            samples.begin() + static_cast<std::ptrdiff_t>(end));
    const std::vector<std::byte> bytes = encode(datagram);
    std::byte length[4];
    store_be32(length, static_cast<std::uint32_t>(bytes.size()));
    for (const std::byte b : length) image.push_back(static_cast<char>(b));
    for (const std::byte b : bytes) image.push_back(static_cast<char>(b));
  }
  return image;
}

TEST(Trace, WriterMatchesPerBatchEncode) {
  // Captures of every size the writer meets: TCP with payload, a full
  // 128-byte non-IP capture, and an empty one.
  std::vector<FlowSample> samples;
  for (std::uint32_t i = 0; i < 23; ++i) {
    FlowSample sample = make_sample(i);
    if (i % 5 == 3) {
      sample.frame = build_other_frame(MacAddr::from_id(i), MacAddr::from_id(9),
                                       EtherType::kIpv6, 1400);
    } else if (i % 7 == 6) {
      sample.frame = SampledFrame{};
    }
    sample.source_port = i * 3;
    samples.push_back(sample);
  }
  const Ipv4Addr agent{172, 16, 0, 1};
  // Partial final batches (4, 7, 128), exact batches (23) and batch = 1.
  for (const std::size_t batch : {1u, 4u, 7u, 23u, 128u}) {
    std::stringstream buffer;
    {
      TraceWriter writer{buffer, agent, batch};
      for (const FlowSample& sample : samples) writer.write(sample);
    }
    EXPECT_EQ(buffer.str(), reference_image(agent, samples, batch))
        << "batch " << batch;
  }
}

TEST(Datagram, CounterSamplesRoundTrip) {
  Datagram d;
  d.agent = Ipv4Addr{172, 16, 0, 1};
  d.counters.push_back(CounterSample{7, 1'000'000'000'000ULL, 2ULL << 40,
                                     999, 12345});
  d.counters.push_back(CounterSample{8, 0, 0, 0, 0});
  const auto decoded = decode(encode(d));
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->counters.size(), 2u);
  EXPECT_EQ(decoded->counters[0], d.counters[0]);
  EXPECT_EQ(decoded->counters[1], d.counters[1]);
}

TEST(Datagram, MixedFlowAndCounterSamples) {
  Datagram d;
  d.agent = Ipv4Addr{1, 2, 3, 4};
  FlowSample sample = make_sample(1);
  d.samples.push_back(sample);
  d.counters.push_back(CounterSample{1, 10, 20, 30, 40});
  const auto decoded = decode(encode(d));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->samples.size(), 1u);
  EXPECT_EQ(decoded->counters.size(), 1u);
}

}  // namespace
}  // namespace ixp::sflow
