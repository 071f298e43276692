// Differential suite: sflow::decode_into against the byte-counted oracle.
//
// decode_into copies each capture as one fixed kCaptureBytes block when
// the datagram holds that many bytes past the sample header, and counts
// bytes only near the datagram's end. The oracle
// (tests/support/datagram_oracle.hpp) copies exactly `captured` bytes
// every time. Both must give the same verdict, the same header fields and
// the same first `captured` bytes of every capture. Every input sits in
// its own heap buffer of exactly its size, so a read past the datagram
// span trips AddressSanitizer in the asan preset.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sflow/datagram.hpp"
#include "support/datagram_oracle.hpp"
#include "util/rng.hpp"

namespace ixp::sflow {
namespace {

constexpr std::uint16_t kEdgeCaptures[] = {0, 1, 33, 34, 42, 54, 127, 128};

FlowSample sample_of(std::uint32_t i, std::uint16_t captured) {
  FlowSample sample;
  sample.sequence = 1000 + i;
  sample.source_port = i % 97;
  sample.sampling_rate = 16384;
  sample.frame.frame_length = static_cast<std::uint16_t>(60 + i * 7);
  sample.frame.captured = captured;
  for (std::size_t b = 0; b < kCaptureBytes; ++b)
    sample.frame.data[b] = static_cast<std::byte>(b * 31 + i);
  return sample;
}

Datagram datagram_of(std::initializer_list<std::uint16_t> captures,
                     std::size_t counters) {
  Datagram d;
  d.agent = net::Ipv4Addr{10, 0, 0, 1};
  d.sequence = 7;
  d.uptime_ms = 123456;
  std::uint32_t i = 0;
  for (const std::uint16_t captured : captures)
    d.samples.push_back(sample_of(i++, captured));
  for (std::size_t c = 0; c < counters; ++c)
    d.counters.push_back(CounterSample{static_cast<std::uint32_t>(c), 10 + c,
                                       20 + c, 30 + c, 40 + c});
  return d;
}

/// A capture size drawn in a real week's proportions: 42 B 34%, 54 B 45%,
/// 60-127 B 6%, 128 B 15%.
std::uint16_t week_capture(util::Rng& rng) {
  const std::uint64_t u = rng.next_below(100);
  if (u < 34) return 42;
  if (u < 79) return 54;
  if (u < 85) return static_cast<std::uint16_t>(60 + rng.next_below(68));
  return 128;
}

/// A TraceWriter-sized record: 128 samples and two counter samples.
std::vector<std::byte> full_record(std::uint64_t seed) {
  util::Rng rng{seed};
  Datagram d = datagram_of({}, 2);
  for (std::uint32_t i = 0; i < 128; ++i)
    d.samples.push_back(sample_of(i, week_capture(rng)));
  return encode(d);
}

/// Decodes `bytes` from an exact-size heap copy with both decoders, into
/// `got` (reused across calls, as the ingest paths reuse theirs) and a
/// fresh oracle datagram, and compares them. Returns the verdict.
bool expect_same_decode(std::span<const std::byte> bytes, Datagram& got,
                        const std::string& what) {
  SCOPED_TRACE(what + ", " + std::to_string(bytes.size()) + " bytes");
  const std::unique_ptr<std::byte[]> exact{new std::byte[bytes.size()]};
  if (!bytes.empty()) std::memcpy(exact.get(), bytes.data(), bytes.size());
  const std::span<const std::byte> view{exact.get(), bytes.size()};

  Datagram want;
  const bool accepted = decode_into(view, got);
  const bool oracle_accepted = decode_into_counted(view, want);
  EXPECT_EQ(accepted, oracle_accepted);
  if (accepted != oracle_accepted) return accepted;
  if (!accepted) {
    EXPECT_TRUE(got.samples.empty());
    EXPECT_TRUE(got.counters.empty());
    return false;
  }
  EXPECT_EQ(got.agent, want.agent);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.uptime_ms, want.uptime_ms);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.samples.size(), want.samples.size());
  if (got.samples.size() != want.samples.size()) return true;
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    const FlowSample& a = got.samples[i];
    const FlowSample& b = want.samples[i];
    const bool same =
        a.sequence == b.sequence && a.source_port == b.source_port &&
        a.sampling_rate == b.sampling_rate &&
        a.frame.frame_length == b.frame.frame_length &&
        a.frame.captured == b.frame.captured &&
        std::memcmp(a.frame.data.data(), b.frame.data.data(),
                    b.frame.captured) == 0;
    EXPECT_TRUE(same) << "sample " << i;
    if (!same) break;
  }
  return true;
}

TEST(DatagramDifferential, EveryEdgeCaptureSizeAtEveryPosition) {
  Datagram got;
  for (const std::uint16_t captured : kEdgeCaptures) {
    for (const std::size_t counters : {0u, 1u, 3u}) {
      const std::string what = "captured " + std::to_string(captured) +
                               ", counters " + std::to_string(counters);
      // Alone, last after a full block, first before one, and between.
      for (const auto& d :
           {datagram_of({captured}, counters),
            datagram_of({128, captured}, counters),
            datagram_of({captured, 128}, counters),
            datagram_of({42, captured, 54, captured}, counters)}) {
        EXPECT_TRUE(expect_same_decode(encode(d), got, what));
      }
    }
  }
  // A count of zero samples, with and without counters.
  EXPECT_TRUE(expect_same_decode(encode(datagram_of({}, 0)), got, "empty"));
  EXPECT_TRUE(expect_same_decode(encode(datagram_of({}, 2)), got, "counters"));
}

TEST(DatagramDifferential, CapturedOver128IsRejectedByBoth) {
  Datagram got;
  for (const std::size_t lead : {0u, 1u, 3u}) {
    Datagram d = datagram_of({}, 1);
    for (std::uint32_t i = 0; i < lead; ++i) d.samples.push_back(sample_of(i, 54));
    d.samples.push_back(sample_of(static_cast<std::uint32_t>(lead), 128));
    std::vector<std::byte> bytes = encode(d);
    // Relabel the last capture as 129 bytes and give it its 129th byte.
    const std::size_t field =
        Datagram::kHeaderBytes + lead * (16 + 54) + 14;
    store_be16(bytes.data() + field, 129);
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(field + 2 + 128),
                 std::byte{0x5a});
    EXPECT_FALSE(expect_same_decode(bytes, got,
                                    "captured 129 after " + std::to_string(lead)));
  }
}

TEST(DatagramDifferential, LastSampleEndingZeroToFourBytesBeforeTheCounterCount) {
  // The fixed-block copy's edge: the last capture of every size, followed
  // by 0-3 bytes (a cut counter count, rejected) or by a whole count.
  Datagram got;
  for (std::uint16_t captured = 0; captured <= kCaptureBytes; ++captured) {
    for (const std::size_t lead : {0u, 2u}) {
      Datagram d = datagram_of({}, 0);
      for (std::uint32_t i = 0; i < lead; ++i)
        d.samples.push_back(sample_of(i, 128));
      d.samples.push_back(sample_of(static_cast<std::uint32_t>(lead), captured));
      const std::vector<std::byte> bytes = encode(d);
      for (std::size_t tail = 0; tail <= 4; ++tail) {
        const auto cut =
            std::span<const std::byte>{bytes}.first(bytes.size() - 4 + tail);
        const bool accepted = expect_same_decode(
            cut, got,
            "captured " + std::to_string(captured) + ", tail " +
                std::to_string(tail) + ", lead " + std::to_string(lead));
        EXPECT_EQ(accepted, tail == 4);
      }
    }
  }
}

TEST(DatagramDifferential, EveryTruncationOfAFullRecord) {
  Datagram got;
  for (const std::uint64_t seed : {1u, 2u}) {
    const std::vector<std::byte> bytes = full_record(seed);
    ASSERT_TRUE(expect_same_decode(bytes, got, "whole record"));
    ASSERT_EQ(got.samples.size(), 128u);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(expect_same_decode(std::span<const std::byte>{bytes}.first(cut),
                                      got, "seed " + std::to_string(seed)));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(DatagramDifferential, BitFlipsInEveryLengthAndCountField) {
  const std::vector<std::byte> base = full_record(3);
  // The sample count, every frame length and captured length, and the
  // counter count: their offsets in the intact record.
  std::vector<std::pair<std::size_t, std::size_t>> fields;  // offset, width
  fields.emplace_back(16, 4);
  std::size_t at = Datagram::kHeaderBytes;
  for (std::size_t i = 0; i < 128; ++i) {
    fields.emplace_back(at + 12, 2);
    fields.emplace_back(at + 14, 2);
    at += 16 + load_be16(base.data() + at + 14);
  }
  fields.emplace_back(at, 4);

  Datagram got;
  std::size_t accepted = 0;
  for (const auto& [offset, width] : fields) {
    for (std::size_t bit = 0; bit < width * 8; ++bit) {
      std::vector<std::byte> flipped = base;
      flipped[offset + bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      accepted += expect_same_decode(flipped, got,
                                     "offset " + std::to_string(offset) +
                                         ", bit " + std::to_string(bit))
                      ? 1
                      : 0;
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Frame-length flips are accepted; most other flips break the framing.
  EXPECT_GE(accepted, 128u * 16);
}

TEST(DatagramDifferential, RandomByteMutationsAndJunk) {
  util::Rng rng{0xd1ff};
  const std::vector<std::byte> base = full_record(4);
  Datagram got;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::byte> bytes = base;
    const std::size_t flips = 1 + rng.next_below(3);
    for (std::size_t f = 0; f < flips; ++f)
      bytes[rng.next_below(bytes.size())] =
          static_cast<std::byte>(rng.next_below(256));
    (void)expect_same_decode(bytes, got, "mutation " + std::to_string(trial));
    if (::testing::Test::HasFailure()) return;
  }
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::byte> junk(rng.next_below(400));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    if (junk.size() >= 4) store_be32(junk.data(), Datagram::kVersion);
    (void)expect_same_decode(junk, got, "junk " + std::to_string(trial));
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace ixp::sflow
