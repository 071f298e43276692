// Failure containment in the parallel engine (DESIGN.md §8):
//   - a worker-thread exception must never deadlock the bounded batch
//     queue or take the process down — strict mode joins every thread and
//     rethrows on the calling thread, lenient mode completes the week
//     with a degraded report;
//   - a trace damaged by the FaultInjector, read leniently, must produce
//     a byte-identical report for any thread count (segments start on
//     plausible records and each cursor resyncs inside its own segment,
//     so corruption cannot break determinism).
// Runs under the tsan preset: the interesting bugs here are lock-order
// and lost-wakeup races on the failure path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/fault_injector.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"

namespace ixp::core {
namespace {

constexpr int kWeek = 45;

class ParallelFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new analysis::Study{gen::ScaleConfig::test()};
    samples_ = new std::vector<sflow::FlowSample>;
    study_->workload().generate_week(
        kWeek, [](const sflow::FlowSample& s) { samples_->push_back(s); });
  }

  static void TearDownTestSuite() {
    delete samples_;
    delete study_;
  }

  static analysis::Study* study_;
  static std::vector<sflow::FlowSample>* samples_;
};

analysis::Study* ParallelFaultTest::study_ = nullptr;
std::vector<sflow::FlowSample>* ParallelFaultTest::samples_ = nullptr;

/// The determinism contract, reduced to its load-bearing fields.
void expect_reports_equal(const WeeklyReport& a, const WeeklyReport& b) {
  EXPECT_EQ(a.filters, b.filters);
  EXPECT_EQ(a.dissection, b.dissection);
  EXPECT_EQ(a.https_funnel.candidates, b.https_funnel.candidates);
  EXPECT_EQ(a.https_funnel.responded, b.https_funnel.responded);
  EXPECT_EQ(a.https_funnel.confirmed, b.https_funnel.confirmed);
  EXPECT_EQ(a.by_as, b.by_as);
  EXPECT_EQ(a.by_country, b.by_country);
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i) {
    EXPECT_EQ(a.servers[i].addr, b.servers[i].addr);
    EXPECT_EQ(a.servers[i].bytes, b.servers[i].bytes);
  }
}

/// Records a sample stream to trace bytes (TraceWriter framing).
std::vector<std::byte> record_trace(const std::vector<sflow::FlowSample>& samples) {
  std::stringstream buffer;
  {
    sflow::TraceWriter writer{buffer, net::Ipv4Addr{172, 16, 0, 1}, 128};
    for (const auto& s : samples) writer.write(s);
  }
  const std::string raw = buffer.str();
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

/// A span source that declines to split, so the analyzer pumps it from
/// the calling thread through the bounded queue — the path a live feed
/// takes.
class SerialSource final : public ingest::IngestSource {
 public:
  SerialSource(std::span<const sflow::FlowSample> samples, std::size_t batch)
      : inner_(samples, batch) {}
  ingest::SourceStatus next_batch(ingest::SampleBatch& out) override {
    return inner_.next_batch(out);
  }

 private:
  ingest::SpanSource inner_;
};

ParallelOptions throwing_options(unsigned threads, std::uint64_t bad_seq) {
  ParallelOptions options;
  options.threads = threads;
  options.batch_size = 64;
  options.max_queued_batches = 2;  // small: force reader/worker blocking
  options.worker_hook = [bad_seq](std::span<const sflow::FlowSample>,
                                  std::uint64_t first_seq) {
    if (first_seq == bad_seq) throw std::runtime_error{"classifier blew up"};
  };
  return options;
}

TEST_F(ParallelFaultTest, StrictWorkerExceptionRethrownNoDeadlock) {
  auto vp = study_->vantage();
  // The poisoned batch sits mid-stream: the reader will still be pushing
  // against the tiny queue when the worker dies, which is exactly the
  // blocked-push scenario abort() must unwedge.
  ParallelAnalyzer analyzer{vp, throwing_options(4, 512)};
  SerialSource source{*samples_, 64};
  EXPECT_THROW((void)analyzer.analyze(kWeek, source, study_->fetcher(kWeek)),
               std::runtime_error);
}

TEST_F(ParallelFaultTest, StrictSpanWorkerExceptionRethrown) {
  auto vp = study_->vantage();
  ParallelAnalyzer analyzer{vp, throwing_options(4, 512)};
  ingest::SpanSource source{*samples_, 64};
  EXPECT_THROW((void)analyzer.analyze(kWeek, source, study_->fetcher(kWeek)),
               std::runtime_error);
}

TEST_F(ParallelFaultTest, LenientWorkerCompletesDegraded) {
  auto options = throwing_options(4, 512);
  options.lenient_workers = true;
  auto vp = study_->vantage();
  ParallelAnalyzer analyzer{vp, options};
  ingest::SpanSource source{*samples_, options.batch_size};
  const auto report = analyzer.analyze(kWeek, source, study_->fetcher(kWeek));
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.worker_errors.size(), 4u);
  std::uint64_t dropped = 0;
  for (const auto count : report.worker_errors) dropped += count;
  EXPECT_EQ(dropped, 1u);  // exactly the poisoned batch
}

TEST_F(ParallelFaultTest, CleanRunIsNotDegraded) {
  auto vp = study_->vantage();
  ParallelOptions options;
  options.threads = 2;
  options.batch_size = 64;
  ParallelAnalyzer analyzer{vp, options};
  ingest::SpanSource source{*samples_, options.batch_size};
  const auto report = analyzer.analyze(kWeek, source, study_->fetcher(kWeek));
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.worker_errors.empty());
}

TEST_F(ParallelFaultTest, CorruptTraceLenientReportIdenticalAcrossThreads) {
  // Record the week, damage it with the default mix, then demand the
  // 1-, 2-, and 8-thread lenient analyses agree bit for bit.
  std::vector<std::byte> corrupted;
  const sflow::FaultInjector injector{42};
  const auto fault_report = injector.corrupt(record_trace(*samples_), corrupted);
  ASSERT_TRUE(fault_report);
  ASSERT_GT(fault_report->faults(), 0u);
  const auto trace = sflow::MappedTrace::adopt(std::move(corrupted));
  ASSERT_TRUE(trace.ok());

  std::vector<WeeklyReport> reports;
  std::vector<sflow::ReaderStats> stats;
  for (const unsigned threads : {1u, 2u, 8u}) {
    auto vp = study_->vantage();
    ParallelOptions options;
    options.threads = threads;
    options.batch_size = 256;
    ParallelAnalyzer analyzer{vp, options};
    ingest::MappedSource source{trace, sflow::ReadPolicy::lenient()};
    reports.push_back(analyzer.analyze(kWeek, source, study_->fetcher(kWeek)));
    EXPECT_TRUE(source.ok()) << threads << " threads";
    EXPECT_TRUE(source.stats().degraded()) << threads << " threads";
    stats.push_back(source.stats());
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE("thread variant " + std::to_string(i));
    expect_reports_equal(reports[0], reports[i]);
    EXPECT_EQ(stats[0].samples, stats[i].samples);
    EXPECT_EQ(stats[0].bytes_skipped, stats[i].bytes_skipped);
    EXPECT_EQ(stats[0].errors(), stats[i].errors());
  }
}

/// The split contract at report level: an N-thread analysis over a
/// MappedSource split into segments is byte-identical to the 1-thread
/// analysis of the unsplit source, and the per-segment ReaderStats sum to
/// the unsplit whole-file taxonomy — on a clean trace and on a damaged
/// one.
TEST_F(ParallelFaultTest, MappedSplitReportMatchesUnsplitOnCleanAndCorrupt) {
  const std::vector<std::byte> clean = record_trace(*samples_);
  std::vector<std::byte> corrupted;
  {
    const sflow::FaultInjector injector{42};
    const auto fault_report = injector.corrupt(clean, corrupted);
    ASSERT_TRUE(fault_report);
    ASSERT_GT(fault_report->faults(), 0u);
  }

  const std::vector<std::byte>* variants[] = {&clean, &corrupted};
  for (const auto* bytes : variants) {
    SCOPED_TRACE(bytes == &clean ? "clean trace" : "corrupted trace");
    auto copy = *bytes;
    const auto trace = sflow::MappedTrace::adopt(std::move(copy));
    ASSERT_TRUE(trace.ok());

    // Unsplit baseline: one thread, one segment, lenient.
    auto vp = study_->vantage();
    ParallelOptions serial_options;
    serial_options.threads = 1;
    ParallelAnalyzer baseline{vp, serial_options};
    ingest::MappedSource unsplit{trace, sflow::ReadPolicy::lenient()};
    const auto serial = baseline.analyze(kWeek, unsplit, study_->fetcher(kWeek));
    ASSERT_TRUE(unsplit.ok());
    ASSERT_EQ(unsplit.segments().size(), 1u);

    for (const unsigned threads : {4u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      auto vp2 = study_->vantage();
      ParallelOptions options;
      options.threads = threads;
      ParallelAnalyzer analyzer{vp2, options};
      ingest::MappedSource source{trace, sflow::ReadPolicy::lenient()};
      const auto split = analyzer.analyze(kWeek, source, study_->fetcher(kWeek));
      EXPECT_GT(source.segments().size(), 1u);
      expect_reports_equal(serial, split);

      // Exact accounting: the summed per-segment taxonomy equals the
      // unsplit whole-file one, field for field, and covers every byte.
      const sflow::ReaderStats total = source.stats();
      EXPECT_EQ(total, unsplit.stats());
      EXPECT_TRUE(source.within_budget());
      EXPECT_TRUE(source.ok());
      ASSERT_EQ(source.per_segment().size(), source.segments().size());
      sflow::ReaderStats resummed;
      for (const auto& stats : source.per_segment()) resummed += stats;
      EXPECT_EQ(resummed, total);
      EXPECT_EQ(sflow::kTraceHeaderBytes + total.bytes_delivered +
                    total.bytes_skipped,
                bytes->size());
    }
  }
}

TEST_F(ParallelFaultTest, MappedStrictPolicyReportsBudgetExceeded) {
  const std::vector<std::byte> clean = record_trace(*samples_);
  std::vector<std::byte> corrupted;
  const sflow::FaultInjector injector{42};
  ASSERT_TRUE(injector.corrupt(clean, corrupted));

  const auto trace = sflow::MappedTrace::adopt(std::move(corrupted));
  ASSERT_TRUE(trace.ok());
  auto vp = study_->vantage();
  ParallelOptions options;
  options.threads = 4;
  ParallelAnalyzer analyzer{vp, options};
  ingest::MappedSource source{trace, sflow::ReadPolicy::strict()};
  (void)analyzer.analyze(kWeek, source, study_->fetcher(kWeek));
  EXPECT_GT(source.stats().errors(), 0u);
  EXPECT_FALSE(source.within_budget());
  EXPECT_FALSE(source.ok());
}

TEST_F(ParallelFaultTest, MappedStrictWorkerExceptionRethrownNoDeadlock) {
  const auto trace = sflow::MappedTrace::adopt(record_trace(*samples_));
  ASSERT_TRUE(trace.ok());
  ParallelOptions options;
  options.threads = 4;
  // Poison one mid-stream record: segment claiming must still join every
  // worker and rethrow on the calling thread.
  auto hits = std::make_shared<std::atomic<std::uint64_t>>(0);
  options.worker_hook = [hits](std::span<const sflow::FlowSample>,
                               std::uint64_t) {
    if (hits->fetch_add(1) == 40) throw std::runtime_error{"classifier blew up"};
  };
  auto vp = study_->vantage();
  ParallelAnalyzer analyzer{vp, options};
  ingest::MappedSource source{trace, sflow::ReadPolicy::lenient()};
  EXPECT_THROW((void)analyzer.analyze(kWeek, source, study_->fetcher(kWeek)),
               std::runtime_error);
}

TEST_F(ParallelFaultTest, MappedLenientWorkerCompletesDegraded) {
  const auto trace = sflow::MappedTrace::adopt(record_trace(*samples_));
  ASSERT_TRUE(trace.ok());
  ParallelOptions options;
  options.threads = 4;
  options.lenient_workers = true;
  auto hits = std::make_shared<std::atomic<std::uint64_t>>(0);
  options.worker_hook = [hits](std::span<const sflow::FlowSample>,
                               std::uint64_t) {
    if (hits->fetch_add(1) == 40) throw std::runtime_error{"classifier blew up"};
  };
  auto vp = study_->vantage();
  ParallelAnalyzer analyzer{vp, options};
  ingest::MappedSource source{trace, sflow::ReadPolicy::lenient()};
  const auto report = analyzer.analyze(kWeek, source, study_->fetcher(kWeek));
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.worker_errors.size(), 4u);
  std::uint64_t dropped = 0;
  for (const auto count : report.worker_errors) dropped += count;
  EXPECT_EQ(dropped, 1u);  // exactly the poisoned record
}

}  // namespace
}  // namespace ixp::core
