// The capture tail contract: after a decode, the bytes of
// SampledFrame::data past `captured` are unspecified (decode_into copies
// a fixed 128-byte block, so they hold whatever record bytes followed the
// capture). Nothing downstream may depend on them. A test-scale week is
// written as a trace and decoded, then its tails are overwritten with
// 0x00, with 0xFF and with random bytes. In every case the staged
// FrameBatch rows (host views at the same capture offsets), the filter
// counters, the HTTP matches, the re-encoded samples and the encoded
// shard equal those of the generated week.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "classify/frame_batch.hpp"
#include "classify/http_matcher.hpp"
#include "classify/peering_filter.hpp"
#include "core/week_shard.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "sflow/datagram.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"
#include "store/snapshot_codec.hpp"
#include "util/rng.hpp"

namespace ixp {
namespace {

using sflow::FlowSample;

constexpr int kWeek = 45;
constexpr std::size_t kBatch = 512;

/// Offset of `view` into `sample`'s capture, or -1 when the view is empty.
std::ptrdiff_t offset_in(const FlowSample& sample, std::string_view view) {
  if (view.empty()) return -1;
  return view.data() - reinterpret_cast<const char*>(sample.frame.data.data());
}

struct StagedRow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t tcp = 0;
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;
  std::uint8_t indication = 0;
  std::ptrdiff_t host_at = -1;
  std::size_t host_size = 0;

  friend bool operator==(const StagedRow&, const StagedRow&) = default;
};

struct MatchRow {
  std::uint64_t seq = 0;
  classify::HttpIndication indication = classify::HttpIndication::kNone;
  std::ptrdiff_t host_at = -1;
  std::size_t host_size = 0;
  std::ptrdiff_t path_at = -1;
  std::size_t path_size = 0;

  friend bool operator==(const MatchRow&, const MatchRow&) = default;
};

/// Everything downstream of the decoder that reads a capture.
struct Observed {
  std::vector<StagedRow> staged;
  classify::FilterCounters staged_counters;
  classify::FilterCounters filtered_counters;
  std::vector<MatchRow> matches;
  std::vector<std::byte> encoded;
  std::vector<std::byte> shard;
};

Observed observe(const fabric::Ixp& ixp, std::span<const FlowSample> stream) {
  Observed out;
  const classify::PeeringFilter filter{ixp, kWeek};
  classify::FrameBatch batch;
  for (std::size_t at = 0; at < stream.size(); at += kBatch) {
    const auto cut = stream.subspan(at, std::min(kBatch, stream.size() - at));
    batch.clear();
    filter.stage(cut, at, out.staged_counters, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint64_t seq = batch.seq()[i];
      out.staged.push_back(StagedRow{
          batch.src()[i].value(), batch.dst()[i].value(), batch.src_port()[i],
          batch.dst_port()[i], batch.tcp()[i], batch.bytes()[i], seq,
          batch.indication()[i], offset_in(stream[seq], batch.host()[i]),
          batch.host()[i].size()});
    }
  }

  for (std::size_t seq = 0; seq < stream.size(); ++seq) {
    const FlowSample& sample = stream[seq];
    (void)filter.filter(sample, out.filtered_counters);
    const auto parsed = sflow::parse_frame(sample.frame);
    if (parsed && parsed->is_tcp() && !parsed->payload.empty()) {
      const classify::HttpMatch match =
          classify::HttpMatcher::match(parsed->payload);
      out.matches.push_back(MatchRow{
          seq, match.indication, offset_in(sample, match.host),
          match.host.size(), offset_in(sample, match.path), match.path.size()});
    }
    sflow::encode_sample(sample, out.encoded);
  }

  core::WeekShard shard{ixp, kWeek};
  for (std::size_t at = 0; at < stream.size(); at += kBatch)
    shard.observe_batch(stream.subspan(at, std::min(kBatch, stream.size() - at)),
                        at);
  out.shard = store::SnapshotCodec::encode_shard(shard);
  return out;
}

void expect_same(const Observed& got, const Observed& want,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.staged.size(), want.staged.size());
  for (std::size_t i = 0; i < got.staged.size(); ++i)
    ASSERT_TRUE(got.staged[i] == want.staged[i]) << "staged row " << i;
  EXPECT_EQ(got.staged_counters, want.staged_counters);
  EXPECT_EQ(got.filtered_counters, want.filtered_counters);
  ASSERT_EQ(got.matches.size(), want.matches.size());
  for (std::size_t i = 0; i < got.matches.size(); ++i)
    ASSERT_TRUE(got.matches[i] == want.matches[i])
        << "match of sample " << want.matches[i].seq;
  EXPECT_TRUE(got.encoded == want.encoded);
  EXPECT_TRUE(got.shard == want.shard);
}

/// Writes `samples` as a trace of 128-sample records and decodes it back.
std::vector<FlowSample> through_trace(std::span<const FlowSample> samples) {
  std::stringstream buffer;
  {
    sflow::TraceWriter writer{buffer, net::Ipv4Addr{172, 16, 0, 1}, 128};
    for (const FlowSample& sample : samples) writer.write(sample);
  }
  const std::string raw = buffer.str();
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  const auto trace = sflow::MappedTrace::adopt(std::move(bytes));
  EXPECT_TRUE(trace.ok());
  sflow::TraceCursor cursor{trace.bytes(),
                            {sflow::kTraceHeaderBytes, trace.size()},
                            sflow::ReadPolicy::strict()};
  std::vector<FlowSample> decoded;
  std::uint64_t key = 0;
  for (auto record = cursor.read_record(key); !record.empty();
       record = cursor.read_record(key))
    decoded.insert(decoded.end(), record.begin(), record.end());
  EXPECT_TRUE(cursor.ok());
  return decoded;
}

/// Samples whose bytes past `captured` are not all `fill`.
std::size_t tails_not_all(std::span<const FlowSample> samples, std::byte fill) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [&](const FlowSample& s) {
        return std::any_of(s.frame.data.begin() + s.frame.captured,
                           s.frame.data.end(),
                           [&](std::byte b) { return b != fill; });
      }));
}

TEST(CaptureTail, DownstreamResultsIgnoreTheBytesPastCaptured) {
  const gen::InternetModel model{gen::ScaleConfig::test()};
  std::vector<FlowSample> generated;
  gen::Workload{model}.generate_week(
      kWeek, [&](const FlowSample& s) { generated.push_back(s); });
  ASSERT_GT(generated.size(), 10000u);

  const std::vector<FlowSample> decoded = through_trace(generated);
  ASSERT_EQ(decoded.size(), generated.size());
  // The decoder's block copy really does leave record bytes in the tails.
  EXPECT_GT(tails_not_all(decoded, std::byte{0}), generated.size() / 2);

  const Observed want = observe(model.ixp(), generated);
  // Non-vacuous: host views and matches exist to be compared.
  EXPECT_GT(std::count_if(want.staged.begin(), want.staged.end(),
                          [](const StagedRow& r) { return r.host_at >= 0; }),
            100);
  EXPECT_GT(std::count_if(want.matches.begin(), want.matches.end(),
                          [](const MatchRow& m) { return m.path_at >= 0; }),
            100);

  expect_same(observe(model.ixp(), decoded), want, "as decoded");

  util::Rng rng{0x7a11};
  for (const int fill : {0x00, 0xff, -1}) {
    std::vector<FlowSample> filled = decoded;
    for (FlowSample& sample : filled)
      for (std::size_t b = sample.frame.captured; b < sflow::kCaptureBytes; ++b)
        sample.frame.data[b] = static_cast<std::byte>(
            fill < 0 ? rng.next_below(256) : static_cast<std::uint64_t>(fill));
    if (fill >= 0) {
      EXPECT_EQ(tails_not_all(filled, static_cast<std::byte>(fill)), 0u);
    }
    expect_same(observe(model.ixp(), filled), want,
                fill < 0 ? "random tails" : "tails of " + std::to_string(fill));
  }
}

}  // namespace
}  // namespace ixp
