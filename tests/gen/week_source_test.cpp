// gen::WeekSource, the pulled form of a generated week: the same samples,
// keys and ground truth as generate_week, the same shard and report bytes
// as a collected week fed through a SpanSource at any thread count, and a
// producer thread that never outlives the source, whether it is dropped
// mid-stream or a worker fails. Carries the tsan label: the producer, the
// analyzer's pump and its workers all touch the ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "store/snapshot_codec.hpp"

namespace ixp::gen {
namespace {

constexpr int kWeek = 45;

const analysis::Study& study() {
  static const analysis::Study instance{ScaleConfig::test()};
  return instance;
}

bool same_sample(const sflow::FlowSample& a, const sflow::FlowSample& b) {
  const auto a_bytes = a.frame.bytes();
  const auto b_bytes = b.frame.bytes();
  return a.sequence == b.sequence && a.source_port == b.source_port &&
         a.sampling_rate == b.sampling_rate &&
         a.frame.frame_length == b.frame.frame_length &&
         a.frame.captured == b.frame.captured &&
         std::equal(a_bytes.begin(), a_bytes.end(), b_bytes.begin(),
                    b_bytes.end());
}

void expect_same_truth(const WeeklyTruth& a, const WeeklyTruth& b) {
  EXPECT_EQ(a.week, b.week);
  EXPECT_EQ(a.total_samples, b.total_samples);
  EXPECT_EQ(a.non_ipv4_samples, b.non_ipv4_samples);
  EXPECT_EQ(a.non_member_or_local_samples, b.non_member_or_local_samples);
  EXPECT_EQ(a.non_tcp_udp_samples, b.non_tcp_udp_samples);
  EXPECT_EQ(a.peering_samples, b.peering_samples);
  EXPECT_EQ(a.peering_bytes, b.peering_bytes);
  EXPECT_EQ(a.tcp_bytes, b.tcp_bytes);
  EXPECT_EQ(a.udp_bytes, b.udp_bytes);
  EXPECT_EQ(a.server_bytes, b.server_bytes);
  EXPECT_EQ(a.active_visible_servers, b.active_visible_servers);
}

TEST(WeekSource, PullsGenerateWeeksSamplesKeysAndTruth) {
  const Workload& workload = study().workload();
  std::vector<sflow::FlowSample> collected;
  const WeeklyTruth collected_truth = workload.generate_week(
      kWeek, [&](const sflow::FlowSample& s) { collected.push_back(s); });

  WeekSource source{workload, kWeek};
  ingest::SampleBatch batch;
  std::uint64_t next_key = 0;
  std::uint64_t mismatched = 0;
  std::size_t batches = 0;
  while (source.next_batch(batch) == ingest::SourceStatus::kBatch) {
    ++batches;
    ASSERT_EQ(batch.first_seq, next_key) << "batch " << batches;
    ASSERT_FALSE(batch.samples.empty());
    ASSERT_LE(batch.samples.size(), Workload::kRingBatchSamples);
    ASSERT_LE(next_key + batch.samples.size(), collected.size());
    for (std::size_t i = 0; i < batch.samples.size(); ++i)
      if (!same_sample(batch.samples[i], collected[next_key + i])) ++mismatched;
    next_key += batch.samples.size();
  }
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(next_key, collected.size());
  EXPECT_GT(batches, Workload::kRingBatches);
  expect_same_truth(source.truth(), collected_truth);
  // The end is sticky.
  EXPECT_EQ(source.next_batch(batch), ingest::SourceStatus::kEnd);
  EXPECT_TRUE(source.split(4).empty());
}

TEST(WeekSource, ShardAndReportEqualASpanFeedAtAnyThreadCount) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScaleConfig cfg = ScaleConfig::test();
    cfg.seed = seed;
    const analysis::Study seeded{cfg};
    core::VantagePoint vp = seeded.vantage();
    const classify::ChainFetcher fetch = seeded.fetcher(kWeek);
    std::vector<sflow::FlowSample> samples;
    seeded.workload().generate_week(
        kWeek, [&](const sflow::FlowSample& s) { samples.push_back(s); });

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      core::ParallelOptions options;
      options.threads = threads;
      core::ParallelAnalyzer analyzer{vp, options};

      ingest::SpanSource span_shard{samples, options.batch_size};
      core::WeekSession span_session = vp.open_week(kWeek);
      const auto span_shard_bytes = store::SnapshotCodec::encode_shard(
          analyzer.reduce(span_session, span_shard));
      WeekSource pulled_shard = seeded.week(kWeek);
      core::WeekSession pulled_session = vp.open_week(kWeek);
      const auto pulled_shard_bytes = store::SnapshotCodec::encode_shard(
          analyzer.reduce(pulled_session, pulled_shard));
      EXPECT_TRUE(pulled_shard_bytes == span_shard_bytes);

      ingest::SpanSource span_report{samples, options.batch_size};
      const auto span_report_bytes = store::SnapshotCodec::encode_report(
          analyzer.analyze(kWeek, span_report, fetch));
      WeekSource pulled_report = seeded.week(kWeek);
      const auto pulled_report_bytes = store::SnapshotCodec::encode_report(
          analyzer.analyze(kWeek, pulled_report, fetch));
      EXPECT_TRUE(pulled_report_bytes == span_report_bytes);
      EXPECT_EQ(pulled_report.truth().total_samples, samples.size());
    }
  }
}

TEST(WeekSource, DroppedAfterOneBatchJoinsTheProducer) {
  const Workload& workload = study().workload();
  std::vector<sflow::FlowSample> first;
  {
    // The producer fills the ring and blocks on it; the destructor must
    // stop it rather than wait for the rest of the week.
    WeekSource source{workload, kWeek};
    ingest::SampleBatch batch;
    ASSERT_EQ(source.next_batch(batch), ingest::SourceStatus::kBatch);
    first.assign(batch.samples.begin(), batch.samples.end());
  }
  { WeekSource never_pulled{workload, kWeek}; }

  // The workload is untouched: a fresh source starts the week over.
  WeekSource again{workload, kWeek};
  ingest::SampleBatch batch;
  ASSERT_EQ(again.next_batch(batch), ingest::SourceStatus::kBatch);
  ASSERT_EQ(batch.samples.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(same_sample(batch.samples[i], first[i])) << "sample " << i;
}

TEST(WeekSource, ThrowingWorkerReachesTheCallerAndStopsTheProducer) {
  core::VantagePoint vp = study().vantage();
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::ParallelOptions options;
    options.threads = threads;
    options.worker_hook = [](std::span<const sflow::FlowSample>,
                             std::uint64_t first_seq) {
      if (first_seq >= 8 * Workload::kRingBatchSamples)
        throw std::runtime_error{"worker failed"};
    };
    core::ParallelAnalyzer analyzer{vp, options};
    {
      WeekSource source = study().week(kWeek);
      EXPECT_THROW((void)analyzer.analyze(kWeek, source, study().fetcher(kWeek)),
                   std::runtime_error);
    }  // the source's destructor stops and joins the producer here
  }
  // A clean run afterwards still sees the whole week.
  core::ParallelAnalyzer analyzer{vp};
  WeekSource source = study().week(kWeek);
  const core::WeeklyReport report =
      analyzer.analyze(kWeek, source, study().fetcher(kWeek));
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.filters.total_samples(), source.truth().total_samples);
}

}  // namespace
}  // namespace ixp::gen
