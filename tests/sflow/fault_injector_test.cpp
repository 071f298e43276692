// The corruption matrix: every fault kind, several seeds, and the exact
// byte-accounting contract of the trace decoder — MappedTrace plus a
// TraceCursor over the whole body (DESIGN.md §8). Whatever the
// FaultInjector does to a trace, a lenient cursor must (a) never crash, (b) reach end-of-input with every byte accounted for
// (header + delivered + skipped == input), and (c) honor the strict
// policy's error budget.
#include "sflow/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"

namespace ixp::sflow {
namespace {

using net::Ipv4Addr;

constexpr std::size_t kHeaderBytes = sizeof kTraceMagic + 4;

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

struct ReadOutcome {
  std::uint64_t delivered = 0;
  bool ok = false;
  ReaderStats stats;
};

ReadOutcome read_all(const std::vector<std::byte>& bytes, ReadPolicy policy) {
  const auto trace = MappedTrace::adopt(bytes);
  EXPECT_TRUE(trace.ok());
  TraceCursor cursor{trace.bytes(), {kHeaderBytes, trace.size()}, policy};
  ReadOutcome outcome;
  std::uint64_t key = 0;
  for (auto record = cursor.read_record(key); !record.empty();
       record = cursor.read_record(key))
    outcome.delivered += record.size();
  outcome.ok = cursor.ok();
  outcome.stats = cursor.stats();
  return outcome;
}

/// Every byte of the input is either the header, part of a delivered
/// record, or counted as skipped — the invariant that makes the
/// ingest-health table trustworthy.
void expect_exact_accounting(const ReadOutcome& outcome, std::size_t input) {
  EXPECT_EQ(kHeaderBytes + outcome.stats.bytes_delivered +
                outcome.stats.bytes_skipped,
            input);
}

TEST(FaultInjector, CorruptionMatrixAccountsForEveryByte) {
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
      EXPECT_EQ(report->records_in, 20u);
      EXPECT_EQ(report->bytes_in, intact.size());
      EXPECT_EQ(report->bytes_out, corrupted.size());

      // A lenient cursor must reach end-of-input without failing and
      // account for every byte, no matter the damage.
      const auto outcome = read_all(corrupted, ReadPolicy::lenient());
      EXPECT_TRUE(outcome.ok);
      expect_exact_accounting(outcome, corrupted.size());
      EXPECT_EQ(outcome.delivered, outcome.stats.samples);
    }
  }
}

TEST(FaultInjector, SameSeedSameBytesDifferentSeedDifferentBytes) {
  const std::vector<std::byte> intact = build_trace(140, 7);
  // Flip bits in every record so different seeds must diverge (the
  // default mix is sparse enough that two seeds can both draw zero
  // faults on a 20-record trace).
  FaultMix mix;
  mix.bit_flip = 1.0;
  const FaultInjector a{99, mix}, b{99, mix}, c{100, mix};
  std::vector<std::byte> out_a, out_b, out_c;
  ASSERT_TRUE(a.corrupt(intact, out_a));
  ASSERT_TRUE(b.corrupt(intact, out_b));
  ASSERT_TRUE(c.corrupt(intact, out_c));
  EXPECT_EQ(out_a, out_b);
  EXPECT_NE(out_a, out_c);
}

TEST(FaultInjector, RejectsNonTraceInput) {
  std::vector<std::byte> junk(64, std::byte{0x5a});
  std::vector<std::byte> out;
  EXPECT_FALSE(FaultInjector{1}.corrupt(junk, out));
}

TEST(FaultInjector, ZeroMixIsTheIdentity) {
  const std::vector<std::byte> intact = build_trace(40, 8);
  std::vector<std::byte> out;
  const auto report = FaultInjector{5, FaultMix::none()}.corrupt(intact, out);
  ASSERT_TRUE(report);
  EXPECT_EQ(report->faults(), 0u);
  EXPECT_EQ(out, intact);
}

// ---- targeted single-record damage: exact taxonomy and resync math ----

/// Offsets of each [length][payload] record in an intact trace.
std::vector<std::pair<std::size_t, std::uint32_t>> record_index(
    const std::vector<std::byte>& bytes) {
  std::vector<std::pair<std::size_t, std::uint32_t>> records;
  std::size_t at = kHeaderBytes;
  while (at < bytes.size()) {
    const std::uint32_t length =
        (std::to_integer<std::uint32_t>(bytes[at]) << 24) |
        (std::to_integer<std::uint32_t>(bytes[at + 1]) << 16) |
        (std::to_integer<std::uint32_t>(bytes[at + 2]) << 8) |
        std::to_integer<std::uint32_t>(bytes[at + 3]);
    records.emplace_back(at, length);
    at += 4 + length;
  }
  return records;
}

TEST(TraceResync, SkipsExactlyTheCorruptRecord) {
  // 10 records of 5 samples; break record 2's payload (version word).
  std::vector<std::byte> bytes = build_trace(50, 5);
  const auto records = record_index(bytes);
  ASSERT_EQ(records.size(), 10u);
  const auto [offset, length] = records[2];
  bytes[offset + 4] ^= std::byte{0xff};  // first payload byte: the version

  const auto outcome = read_all(bytes, ReadPolicy::lenient());
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.delivered, 45u);  // all but record 2's five samples
  EXPECT_EQ(outcome.stats.decode_errors, 1u);
  EXPECT_EQ(outcome.stats.resyncs, 1u);
  EXPECT_EQ(outcome.stats.bytes_skipped, 4u + length);
  expect_exact_accounting(outcome, bytes.size());
}

TEST(TraceResync, StrictPolicyStopsAtFirstError) {
  std::vector<std::byte> bytes = build_trace(50, 5);
  const auto records = record_index(bytes);
  bytes[records[2].first + 4] ^= std::byte{0xff};

  const auto outcome = read_all(bytes, ReadPolicy::strict());
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.delivered, 10u);  // records 0 and 1 only
  EXPECT_EQ(outcome.stats.errors(), 1u);
  EXPECT_EQ(outcome.stats.resyncs, 0u);
}

TEST(TraceResync, ErrorBudgetIsExact) {
  // Break records 2 and 5: budget 1 dies on the second error, budget 2
  // rides out both.
  std::vector<std::byte> bytes = build_trace(50, 5);
  const auto records = record_index(bytes);
  bytes[records[2].first + 4] ^= std::byte{0xff};
  bytes[records[5].first + 4] ^= std::byte{0xff};

  const auto short_budget = read_all(bytes, ReadPolicy{1});
  EXPECT_FALSE(short_budget.ok);
  EXPECT_EQ(short_budget.delivered, 20u);  // records 0,1,3,4
  EXPECT_EQ(short_budget.stats.errors(), 2u);
  EXPECT_EQ(short_budget.stats.resyncs, 1u);

  const auto enough = read_all(bytes, ReadPolicy{2});
  EXPECT_TRUE(enough.ok);
  EXPECT_EQ(enough.delivered, 40u);
  EXPECT_EQ(enough.stats.resyncs, 2u);
  expect_exact_accounting(enough, bytes.size());
}

TEST(TraceResync, LenientTailTruncationAccountsRemainder) {
  std::vector<std::byte> bytes = build_trace(40, 4);
  const std::size_t cut = bytes.size() - 30;  // inside the last record
  bytes.resize(cut);

  const auto outcome = read_all(bytes, ReadPolicy::lenient());
  EXPECT_TRUE(outcome.ok);  // lenient: damage noted, not fatal
  EXPECT_EQ(outcome.stats.truncated, 1u);
  EXPECT_GT(outcome.stats.bytes_skipped, 0u);
  expect_exact_accounting(outcome, bytes.size());
}

TEST(TraceResync, DuplicatedRecordsDeliverTwice) {
  const std::vector<std::byte> intact = build_trace(30, 5);
  FaultMix mix;
  mix.duplicate = 1.0;
  std::vector<std::byte> corrupted;
  const auto report = FaultInjector{3, mix}.corrupt(intact, corrupted);
  ASSERT_TRUE(report);
  EXPECT_EQ(report->duplicates, 6u);

  const auto outcome = read_all(corrupted, ReadPolicy::lenient());
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.delivered, 60u);
  EXPECT_EQ(outcome.stats.errors(), 0u);
  expect_exact_accounting(outcome, corrupted.size());
}

}  // namespace
}  // namespace ixp::sflow
