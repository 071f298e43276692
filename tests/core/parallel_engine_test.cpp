// The parallel engine's determinism contract: any shard split of a
// week's sample stream — any shard count, any merge order, any thread
// count — must reproduce the single-shard WeeklyReport field for field,
// bit for bit. These tests run against the synthetic Internet at test
// scale so the streams exercise the full filter/dissect/probe pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "probe/sweeps.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "store/snapshot_codec.hpp"

namespace ixp::core {
namespace {

constexpr int kWeek = 45;

class ParallelEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new analysis::Study{gen::ScaleConfig::test()};

    samples_ = new std::vector<sflow::FlowSample>;
    study_->workload().generate_week(
        kWeek, [](const sflow::FlowSample& s) { samples_->push_back(s); });

    // The reference: one session, one shard, stream order.
    auto vp = study_->vantage();
    WeekSession session = vp.open_week(kWeek);
    session.observe_batch(*samples_);
    baseline_ = new WeeklyReport{session.finish(study_->fetcher(kWeek))};
  }

  static void TearDownTestSuite() {
    delete baseline_;
    delete samples_;
    delete study_;
  }

  /// Field-for-field equality against the baseline report. EXPECT_EQ on
  /// the double fields deliberately demands bit-identity — that is the
  /// contract, not approximate agreement.
  static void expect_matches_baseline(const WeeklyReport& r) {
    const WeeklyReport& b = *baseline_;
    EXPECT_EQ(r.week, b.week);
    EXPECT_EQ(r.filters, b.filters);
    EXPECT_EQ(r.dissection, b.dissection);
    EXPECT_EQ(r.https_funnel.candidates, b.https_funnel.candidates);
    EXPECT_EQ(r.https_funnel.responded, b.https_funnel.responded);
    EXPECT_EQ(r.https_funnel.confirmed, b.https_funnel.confirmed);
    EXPECT_EQ(r.metadata_coverage.servers, b.metadata_coverage.servers);
    EXPECT_EQ(r.metadata_coverage.with_dns, b.metadata_coverage.with_dns);
    EXPECT_EQ(r.metadata_coverage.with_uri, b.metadata_coverage.with_uri);
    EXPECT_EQ(r.metadata_coverage.with_cert, b.metadata_coverage.with_cert);
    EXPECT_EQ(r.metadata_coverage.with_any, b.metadata_coverage.with_any);
    EXPECT_EQ(r.metadata_cleaned_out, b.metadata_cleaned_out);

    EXPECT_EQ(r.peering_ips, b.peering_ips);
    EXPECT_EQ(r.peering_prefixes, b.peering_prefixes);
    EXPECT_EQ(r.peering_ases, b.peering_ases);
    EXPECT_EQ(r.peering_countries, b.peering_countries);
    EXPECT_EQ(r.server_ips, b.server_ips);
    EXPECT_EQ(r.server_prefixes, b.server_prefixes);
    EXPECT_EQ(r.server_ases, b.server_ases);
    EXPECT_EQ(r.server_countries, b.server_countries);

    EXPECT_EQ(r.by_country, b.by_country);
    EXPECT_EQ(r.by_as, b.by_as);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(r.peering_locality[i], b.peering_locality[i]) << "locality " << i;
      EXPECT_EQ(r.server_locality[i], b.server_locality[i]) << "locality " << i;
    }

    ASSERT_EQ(r.servers.size(), b.servers.size());
    for (std::size_t i = 0; i < r.servers.size(); ++i) {
      const ServerObservation& got = r.servers[i];
      const ServerObservation& want = b.servers[i];
      ASSERT_EQ(got.addr, want.addr) << "server " << i;
      EXPECT_EQ(got.bytes, want.bytes) << got.addr.to_string();
      EXPECT_EQ(got.http, want.http) << got.addr.to_string();
      EXPECT_EQ(got.https, want.https) << got.addr.to_string();
      EXPECT_EQ(got.rtmp, want.rtmp) << got.addr.to_string();
      EXPECT_EQ(got.also_client, want.also_client) << got.addr.to_string();
      EXPECT_EQ(got.asn, want.asn) << got.addr.to_string();
      EXPECT_EQ(got.country, want.country) << got.addr.to_string();

      const classify::ServerMetadata& gm = got.metadata;
      const classify::ServerMetadata& wm = want.metadata;
      EXPECT_EQ(gm.addr, wm.addr);
      ASSERT_EQ(gm.hostname.has_value(), wm.hostname.has_value())
          << got.addr.to_string();
      if (gm.hostname) {
        EXPECT_EQ(gm.hostname->text(), wm.hostname->text());
      }
      ASSERT_EQ(gm.soa_authority.has_value(), wm.soa_authority.has_value())
          << got.addr.to_string();
      if (gm.soa_authority) {
        EXPECT_EQ(gm.soa_authority->text(), wm.soa_authority->text());
      }
      EXPECT_EQ(gm.uris, wm.uris) << got.addr.to_string();
      ASSERT_EQ(gm.cert_names.size(), wm.cert_names.size())
          << got.addr.to_string();
      for (std::size_t n = 0; n < gm.cert_names.size(); ++n)
        EXPECT_EQ(gm.cert_names[n].text(), wm.cert_names[n].text());
    }
  }

  static analysis::Study* study_;
  static std::vector<sflow::FlowSample>* samples_;
  static WeeklyReport* baseline_;
};

analysis::Study* ParallelEngineTest::study_ = nullptr;
std::vector<sflow::FlowSample>* ParallelEngineTest::samples_ = nullptr;
WeeklyReport* ParallelEngineTest::baseline_ = nullptr;

/// Observes one sample at stream position `seq`: a one-sample batch.
void observe_one(WeekShard& shard, const sflow::FlowSample& sample,
                 std::size_t seq) {
  shard.observe_batch({&sample, 1}, seq);
}

/// Round-robin the stream over K shards, then absorb the shards in a
/// rotated order. Any K and any absorb order must reproduce the baseline.
WeeklyReport run_shard_split(VantagePoint& vp,
                             const std::vector<sflow::FlowSample>& samples,
                             const classify::ChainFetcher& fetch,
                             std::size_t shard_count, std::size_t rotate) {
  WeekSession session = vp.open_week(kWeek);
  std::vector<WeekShard> shards;
  shards.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k)
    shards.push_back(session.make_shard());
  for (std::size_t i = 0; i < samples.size(); ++i)
    observe_one(shards[i % shard_count], samples[i], i);
  std::rotate(shards.begin(),
              shards.begin() + static_cast<std::ptrdiff_t>(rotate % shard_count),
              shards.end());
  for (WeekShard& shard : shards) session.absorb(std::move(shard));
  return session.finish(fetch);
}

TEST_F(ParallelEngineTest, TwoShardsReproduceBaseline) {
  auto vp = study_->vantage();
  expect_matches_baseline(run_shard_split(vp, *samples_, study_->fetcher(kWeek), 2, 1));
}

TEST_F(ParallelEngineTest, ThreeShardsMergedOutOfOrder) {
  auto vp = study_->vantage();
  expect_matches_baseline(run_shard_split(vp, *samples_, study_->fetcher(kWeek), 3, 2));
}

TEST_F(ParallelEngineTest, SevenShardsMergedOutOfOrder) {
  auto vp = study_->vantage();
  expect_matches_baseline(run_shard_split(vp, *samples_, study_->fetcher(kWeek), 7, 4));
}

TEST_F(ParallelEngineTest, PairwiseShardMergeIsAssociative) {
  // (a . b) . c  versus  a . (b . c) over a 3-way split of the stream.
  auto vp = study_->vantage();
  const auto split3 = [&](WeekSession& session) {
    std::vector<WeekShard> shards;
    for (int k = 0; k < 3; ++k) shards.push_back(session.make_shard());
    for (std::size_t i = 0; i < samples_->size(); ++i)
      observe_one(shards[i % 3], (*samples_)[i], i);
    return shards;
  };

  WeekSession left = vp.open_week(kWeek);
  {
    auto shards = split3(left);
    shards[0].merge(std::move(shards[1]));  // (a . b)
    shards[0].merge(std::move(shards[2]));  // . c
    left.absorb(std::move(shards[0]));
  }
  const auto left_report = left.finish(study_->fetcher(kWeek));

  WeekSession right = vp.open_week(kWeek);
  {
    auto shards = split3(right);
    shards[1].merge(std::move(shards[2]));  // (b . c)
    shards[0].merge(std::move(shards[1]));  // a .
    right.absorb(std::move(shards[0]));
  }
  const auto right_report = right.finish(study_->fetcher(kWeek));

  expect_matches_baseline(left_report);
  expect_matches_baseline(right_report);
}

/// The canonical bytes of a shard's observation state.
std::vector<std::byte> encoded(const WeekShard& shard) {
  return store::SnapshotCodec::encode_shard(shard);
}

TEST_F(ParallelEngineTest, EmptyShardMergesMatchSingleShardState) {
  // Merging into an empty shard takes the other's tables whole; merging
  // an empty shard in is a no-op; and the consumed shard, left holding
  // the empty tables, is reusable. Every step must encode exactly like
  // one shard that observed the whole stream.
  auto vp = study_->vantage();
  WeekSession session = vp.open_week(kWeek);
  WeekShard single = session.make_shard();
  for (std::size_t i = 0; i < samples_->size(); ++i)
    observe_one(single, (*samples_)[i], i);
  const std::vector<std::byte> want = encoded(single);
  const std::vector<std::byte> empty = encoded(session.make_shard());

  WeekShard full = session.make_shard();
  for (std::size_t i = 0; i < samples_->size(); ++i)
    observe_one(full, (*samples_)[i], i);
  WeekShard into_empty = session.make_shard();
  into_empty.merge(std::move(full));
  EXPECT_TRUE(encoded(into_empty) == want);
  EXPECT_TRUE(encoded(full) == empty);

  WeekShard nothing = session.make_shard();
  into_empty.merge(std::move(nothing));
  EXPECT_TRUE(encoded(into_empty) == want);
  EXPECT_TRUE(encoded(nothing) == empty);

  // Reuse the consumed shard for half of the stream and fold it both
  // ways: into a non-empty shard, and as the first shard of a session.
  WeekShard odd = session.make_shard();
  for (std::size_t i = 0; i < samples_->size(); ++i)
    observe_one(i % 2 == 0 ? full : odd, (*samples_)[i], i);
  WeekShard even_copy = full;
  odd.merge(std::move(full));
  EXPECT_TRUE(encoded(odd) == want);
  EXPECT_TRUE(encoded(full) == empty);

  WeekSession reused = vp.open_week(kWeek);
  reused.absorb(std::move(even_copy));
  WeekShard rest = session.make_shard();
  for (std::size_t i = 1; i < samples_->size(); i += 2)
    observe_one(rest, (*samples_)[i], i);
  reused.absorb(std::move(rest));
  expect_matches_baseline(reused.finish(study_->fetcher(kWeek)));
}

TEST_F(ParallelEngineTest, SpanAnalyzerTwoThreadsMatchesBaseline) {
  auto vp = study_->vantage();
  ParallelOptions options;
  options.threads = 2;
  options.batch_size = 64;  // many batches -> real interleaving
  ParallelAnalyzer analyzer{vp, options};
  ingest::SpanSource source{*samples_, options.batch_size};
  expect_matches_baseline(analyzer.analyze(kWeek, source, study_->fetcher(kWeek)));
}

TEST_F(ParallelEngineTest, SpanAnalyzerFourThreadsMatchesBaseline) {
  auto vp = study_->vantage();
  ParallelOptions options;
  options.threads = 4;
  options.batch_size = 37;  // deliberately odd: ragged final batch
  ParallelAnalyzer analyzer{vp, options};
  ingest::SpanSource source{*samples_, options.batch_size};
  expect_matches_baseline(analyzer.analyze(kWeek, source, study_->fetcher(kWeek)));
}

TEST_F(ParallelEngineTest, SpanAnalyzerEightThreadsMatchesBaseline) {
  auto vp = study_->vantage();
  ParallelOptions options;
  options.threads = 8;  // more workers than a shard's worth of batches
  options.batch_size = 51;
  ParallelAnalyzer analyzer{vp, options};
  ingest::SpanSource source{*samples_, options.batch_size};
  expect_matches_baseline(analyzer.analyze(kWeek, source, study_->fetcher(kWeek)));
}

TEST_F(ParallelEngineTest, TraceReplayThreadedMatchesBaseline) {
  // Full loop: record the stream, replay the trace image through the
  // segment-parallel engine.
  std::stringstream buffer;
  {
    sflow::TraceWriter writer{buffer, net::Ipv4Addr{172, 16, 0, 1}, 128};
    for (const auto& sample : *samples_) writer.write(sample);
    writer.flush();
  }
  const std::string raw = buffer.str();
  std::vector<std::byte> bytes(raw.size());
  std::ranges::copy(std::as_bytes(std::span{raw}), bytes.begin());
  const auto trace = sflow::MappedTrace::adopt(std::move(bytes));
  ASSERT_TRUE(trace.ok());

  auto vp = study_->vantage();
  ParallelOptions options;
  options.threads = 3;
  options.batch_size = 128;
  ParallelAnalyzer analyzer{vp, options};
  ingest::MappedSource source{trace};
  const auto report = analyzer.analyze(kWeek, source, study_->fetcher(kWeek));
  EXPECT_TRUE(source.ok());
  expect_matches_baseline(report);
}

TEST_F(ParallelEngineTest, SingleThreadAnalyzerMatchesBaseline) {
  auto vp = study_->vantage();
  ParallelOptions options;
  options.threads = 1;
  ParallelAnalyzer analyzer{vp, options};
  ingest::SpanSource source{*samples_, options.batch_size};
  expect_matches_baseline(analyzer.analyze(kWeek, source, study_->fetcher(kWeek)));
}

TEST_F(ParallelEngineTest, ThreadedFinishMatchesSerial) {
  // The merge and finish_week run per address partition on the
  // analyzer's threads; the merged shard and the report must encode to
  // the same bytes at any thread count, for more than one world.
  for (const std::uint64_t seed : {1ull, 7ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::ScaleConfig cfg = gen::ScaleConfig::test();
    cfg.seed = seed;
    const analysis::Study study{cfg};
    std::vector<sflow::FlowSample> samples;
    study.workload().generate_week(
        kWeek, [&](const sflow::FlowSample& s) { samples.push_back(s); });
    VantagePoint vp = study.vantage();
    const classify::ChainFetcher fetch = study.fetcher(kWeek);

    std::vector<std::byte> serial_shard;
    std::vector<std::byte> serial_report;
    // 3 threads cut the week into uneven chunks.
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ParallelOptions options;
      options.threads = threads;
      options.batch_size = 256;
      ParallelAnalyzer analyzer{vp, options};
      ingest::SpanSource shard_source{samples, options.batch_size};
      WeekSession session = vp.open_week(kWeek);
      const std::vector<std::byte> shard = store::SnapshotCodec::encode_shard(
          analyzer.reduce(session, shard_source));
      ingest::SpanSource report_source{samples, options.batch_size};
      const std::vector<std::byte> report = store::SnapshotCodec::encode_report(
          analyzer.analyze(kWeek, report_source, fetch));
      if (threads == 1) {
        serial_shard = shard;
        serial_report = report;
        continue;
      }
      EXPECT_TRUE(shard == serial_shard);
      EXPECT_TRUE(report == serial_report);
    }
  }
}

TEST_F(ParallelEngineTest, EveryChunkingGivesTheSameFunnelAndConfirmedSet) {
  // finish_week sweeps each chunk's candidates with a sweep of its own.
  // Whatever the chunking, the summed funnel and the confirmed servers
  // are those of one sweep over every candidate, and the report is the
  // baseline's.
  auto vp = study_->vantage();
  WeekShard shard = vp.open_week(kWeek).make_shard();
  shard.observe_batch(*samples_, 0);
  const std::vector<net::Ipv4Addr> candidates =
      shard.dissector().https_candidates();
  probe::HttpsSweep whole{study_->model().root_store(), dns::PublicSuffixList::builtin(),
                          VantageOptions{}.fetches_per_ip};
  const probe::HttpsSweepResult want = whole.run_with_fetcher(candidates, study_->fetcher(kWeek));
  ASSERT_GT(want.confirmed.size(), 0u);

  for (const std::size_t chunks : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                   std::size_t{7}, classify::kPartitions}) {
    SCOPED_TRACE("chunks " + std::to_string(chunks));
    const WeeklyReport got =
        vp.finish_week_in_chunks(WeekShard{shard}, study_->fetcher(kWeek), 4, chunks);
    EXPECT_EQ(got.https_funnel.candidates, want.funnel.candidates);
    EXPECT_EQ(got.https_funnel.responded, want.funnel.responded);
    EXPECT_EQ(got.https_funnel.confirmed, want.funnel.confirmed);
    EXPECT_EQ(got.https_funnel.early_exits, want.funnel.early_exits);
    std::vector<net::Ipv4Addr> confirmed;
    for (const ServerObservation& server : got.servers)
      if (server.https) confirmed.push_back(server.addr);
    EXPECT_EQ(confirmed, want.confirmed);
    expect_matches_baseline(got);
  }
}

TEST_F(ParallelEngineTest, SweepHandsBackEachConfirmedServersFirstChain) {
  // The metadata harvest reads the chain the sweep fetched first instead
  // of fetching each confirmed server once more: it must be the chain a
  // single fetch returns.
  auto vp = study_->vantage();
  WeekShard shard = vp.open_week(kWeek).make_shard();
  shard.observe_batch(*samples_, 0);
  const classify::ChainFetcher fetch = study_->fetcher(kWeek);
  probe::HttpsSweep sweep{study_->model().root_store(), dns::PublicSuffixList::builtin(),
                          VantageOptions{}.fetches_per_ip};
  const probe::HttpsSweepResult swept =
      sweep.run_with_fetcher(shard.dissector().https_candidates(), fetch);
  ASSERT_GT(swept.confirmed.size(), 0u);
  ASSERT_EQ(swept.chains.size(), swept.confirmed.size());
  for (std::size_t i = 0; i < swept.confirmed.size(); ++i) {
    const std::vector<x509::CertificateChain> once = fetch(swept.confirmed[i], 1);
    ASSERT_EQ(once.size(), 1u) << swept.confirmed[i].to_string();
    EXPECT_TRUE(swept.chains[i] == once.front()) << swept.confirmed[i].to_string();
  }
}

}  // namespace
}  // namespace ixp::core
