// The collector service contract (DESIGN.md §12):
//   * determinism — a trace replayed datagram-by-datagram through the
//     service, framed with its original offsets, yields a final
//     cumulative snapshot byte-identical to `ixpscope analyze` of the
//     same file, for any worker count and any agent count, clean or
//     fault-injected;
//   * graceful degradation — under overload the service sheds the
//     flooding agent's datagrams without stalling, and every datagram is
//     accounted exactly: received == taken + dropped per agent and in
//     total, taken == datagrams + decode_errors;
//   * sequence gaps — `lost` is counted at offer time in arrival order, so
//     a replay reports the same gaps at every worker count;
//   * the sliding window — a snapshot with window_epochs=K covers only
//     the last K sealed epochs.
// Runs under both sanitizer presets (tsan label): the interesting bugs
// are races between the pump workers, snapshot's shard swaps, and drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/study.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/serve_service.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/fault_injector.hpp"
#include "sflow/socket_intake.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"

namespace ixp::core {
namespace {

constexpr int kWeek = 45;

class ServeTest : public ::testing::Test {
 public:
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

analysis::Study* ServeTest::study_ = nullptr;
std::vector<sflow::FlowSample>* ServeTest::samples_ = nullptr;

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

/// One replayable record: its original trace offset, its raw payload, and
/// its decoded flow samples (for building sub-stream baselines).
struct ReplayRecord {
  std::uint64_t offset = 0;
  std::vector<std::byte> payload;
  std::vector<sflow::FlowSample> samples;
};

/// Walks a trace image exactly as `ixpscope replay` does: the lenient
/// cursor delivers every cleanly-decodable record with its offset.
std::vector<ReplayRecord> replay_records(std::span<const std::byte> bytes) {
  std::vector<ReplayRecord> records;
  for (const auto& segment : sflow::TraceSegmenter::split(bytes, 1)) {
    sflow::TraceCursor cursor{bytes, segment, sflow::ReadPolicy::lenient()};
    std::uint64_t seq_base = 0;
    for (auto batch = cursor.read_record(seq_base); !batch.empty();
         batch = cursor.read_record(seq_base)) {
      ReplayRecord record;
      record.offset = cursor.record_offset();
      const auto payload = cursor.record_bytes();
      record.payload.assign(payload.begin(), payload.end());
      record.samples.assign(batch.begin(), batch.end());
      records.push_back(std::move(record));
    }
  }
  return records;
}

/// Offers one record as a framed envelope, optionally rewriting the sFlow
/// agent field (payload bytes 4..8) — the analysis ignores the agent, so
/// the report must stay identical while the service sees many senders.
bool offer_record(ServeService& service, const ReplayRecord& record,
                  int agents, std::size_t index) {
  std::vector<std::byte> payload = record.payload;
  if (agents > 1) {
    const auto agent = static_cast<std::uint32_t>(
        net::Ipv4Addr{10, 99, 0, 0}.value() + index % agents);
    payload[4] = static_cast<std::byte>(agent >> 24);
    payload[5] = static_cast<std::byte>(agent >> 16);
    payload[6] = static_cast<std::byte>(agent >> 8);
    payload[7] = static_cast<std::byte>(agent);
  }
  return service.offer(
      sflow::parse_frame(sflow::encode_replay_frame(record.offset, payload)));
}

/// Polls until the workers have observed `n` sample-carrying datagrams —
/// the deterministic epoch boundary (see ServeService::observed_batches).
void wait_observed(const ServeService& service, std::uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.observed_batches() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "workers stuck: observed " << service.observed_batches() << "/" << n;
    std::this_thread::yield();
  }
}

WeeklyReport analyze_baseline(std::span<const std::byte> bytes) {
  auto vp = ServeTest::study_->vantage();
  ParallelOptions options;
  options.threads = 1;
  ParallelAnalyzer analyzer{vp, options};
  ingest::MappedSource source{bytes, sflow::ReadPolicy::lenient()};
  auto report = analyzer.analyze(kWeek, source, ServeTest::study_->fetcher(kWeek));
  EXPECT_TRUE(source.ok());
  return report;
}

WeeklyReport span_baseline(const std::vector<sflow::FlowSample>& samples) {
  auto vp = ServeTest::study_->vantage();
  ParallelOptions options;
  options.threads = 1;
  ParallelAnalyzer analyzer{vp, options};
  ingest::SpanSource source{samples, options.batch_size};
  return analyzer.analyze(kWeek, source, ServeTest::study_->fetcher(kWeek));
}

TEST_F(ServeTest, ReplayedSnapshotMatchesAnalyzeForAnyWorkerAndAgentCount) {
  const auto clean = record_trace(*samples_);
  std::vector<std::byte> corrupted;
  {
    const sflow::FaultInjector injector{42};
    const auto report = injector.corrupt(clean, corrupted);
    ASSERT_TRUE(report);
    ASSERT_GT(report->faults(), 0u);
  }

  struct Case {
    const std::vector<std::byte>* bytes;
    unsigned threads;
    int agents;
  };
  const Case cases[] = {
      {&clean, 1, 1},     {&clean, 4, 1},     {&clean, 1, 5},
      {&clean, 4, 5},     {&corrupted, 1, 1}, {&corrupted, 4, 5},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE((c.bytes == &clean ? std::string{"clean"}
                                    : std::string{"corrupted"}) +
                 " threads=" + std::to_string(c.threads) +
                 " agents=" + std::to_string(c.agents));
    const auto baseline = analyze_baseline(*c.bytes);
    const auto records = replay_records(*c.bytes);
    ASSERT_FALSE(records.empty());

    auto vp = study_->vantage();
    ServeOptions options;
    options.week = kWeek;
    options.threads = c.threads;
    ServeService service{vp, study_->fetcher(kWeek), options};
    service.start();
    for (std::size_t i = 0; i < records.size(); ++i)
      ASSERT_TRUE(offer_record(service, records[i], c.agents, i));
    const auto snap = service.drain();
    ASSERT_TRUE(snap);
    expect_reports_equal(baseline, snap->report);

    // Exact accounting: nothing dropped, everything decoded, books
    // balanced per agent and in total.
    const auto& acc = snap->accounting;
    const auto totals = acc.intake.totals();
    EXPECT_EQ(totals.received, records.size());
    EXPECT_EQ(totals.dropped, 0u);
    EXPECT_EQ(totals.received, totals.taken + totals.dropped);
    for (const auto& row : acc.intake.rows) {
      EXPECT_EQ(row.counters.received,
                row.counters.taken + row.counters.dropped);
    }
    EXPECT_EQ(acc.intake.rows.size(),
              static_cast<std::size_t>(c.agents > 1 ? c.agents : 1));
    EXPECT_EQ(acc.decode_errors, 0u);  // the replayer sends only clean records
    EXPECT_EQ(totals.taken, acc.datagrams + acc.decode_errors);
    std::uint64_t flow_samples = 0;
    for (const auto& record : records) flow_samples += record.samples.size();
    EXPECT_EQ(acc.flow_samples, flow_samples);
    EXPECT_EQ(acc.counter_samples, 0u);  // TraceWriter emits no counters
  }
}

/// Regression: gap accounting used to run after decode under a global
/// lock, so the pump workers' scheduling order became the sequence order
/// and a lossless replay reported phantom, run-to-run varying losses at
/// 4+ workers. Offer-time accounting makes `lost` a function of arrival
/// order alone. The threaded drains repeat because the old race only
/// showed in some runs.
TEST_F(ServeTest, SequenceGapsDoNotDependOnWorkerCount) {
  const auto records = replay_records(record_trace(*samples_));
  ASSERT_FALSE(records.empty());

  const auto replay_lost = [&](unsigned threads, int agents) {
    auto vp = study_->vantage();
    ServeOptions options;
    options.week = kWeek;
    options.threads = threads;
    ServeService service{vp, study_->fetcher(kWeek), options};
    service.start();
    for (std::size_t i = 0; i < records.size(); ++i)
      EXPECT_TRUE(offer_record(service, records[i], agents, i));
    const auto snap = service.drain();
    const auto totals = snap->accounting.intake.totals();
    EXPECT_EQ(totals.taken, snap->accounting.datagrams);
    return totals.lost;
  };

  constexpr int kRepeats = 8;
  for (const int agents : {1, 5}) {
    const std::uint64_t serial = replay_lost(1, agents);
    // One agent sends the whole clean trace in sequence: nothing is lost.
    // Five agents each see every fifth sequence number, so their gaps are
    // real — but identical however many workers drain them.
    if (agents == 1) {
      EXPECT_EQ(serial, 0u);
    }
    for (const unsigned threads : {4u, 8u}) {
      for (int run = 0; run < kRepeats; ++run) {
        SCOPED_TRACE("agents=" + std::to_string(agents) +
                     " threads=" + std::to_string(threads) +
                     " run=" + std::to_string(run));
        EXPECT_EQ(replay_lost(threads, agents), serial);
      }
    }
  }
}

TEST_F(ServeTest, PeriodicSnapshotsSealEpochsAndDrainStaysCumulative) {
  const auto bytes = record_trace(*samples_);
  const auto baseline = analyze_baseline(bytes);
  const auto records = replay_records(bytes);
  const std::size_t half = records.size() / 2;

  // Split the first half's samples back out for the mid-run parity check.
  std::vector<sflow::FlowSample> first_half;
  for (std::size_t i = 0; i < half; ++i)
    first_half.insert(first_half.end(), records[i].samples.begin(),
                      records[i].samples.end());

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 2;
  ServeService service{vp, study_->fetcher(kWeek), options};
  service.start();
  EXPECT_EQ(service.current(), nullptr);

  for (std::size_t i = 0; i < half; ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
  wait_observed(service, half);
  const auto mid = service.snapshot();
  EXPECT_EQ(mid->epoch, 1u);
  expect_reports_equal(span_baseline(first_half), mid->report);
  EXPECT_EQ(service.current(), mid);

  for (std::size_t i = half; i < records.size(); ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
  const auto final_snap = service.drain();
  EXPECT_EQ(final_snap->epoch, 2u);
  expect_reports_equal(baseline, final_snap->report);  // cumulative window
  EXPECT_EQ(service.current(), final_snap);
  EXPECT_EQ(service.drain(), final_snap);  // idempotent
}

TEST_F(ServeTest, SlidingWindowCoversOnlyRecentEpochs) {
  const auto bytes = record_trace(*samples_);
  const auto records = replay_records(bytes);
  const std::size_t half = records.size() / 2;

  std::vector<sflow::FlowSample> first_half;
  std::vector<sflow::FlowSample> second_half;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto& sink = i < half ? first_half : second_half;
    sink.insert(sink.end(), records[i].samples.begin(),
                records[i].samples.end());
  }

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 2;
  options.window_epochs = 1;
  ServeService service{vp, study_->fetcher(kWeek), options};
  service.start();

  for (std::size_t i = 0; i < half; ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
  wait_observed(service, half);
  const auto first = service.snapshot();
  expect_reports_equal(span_baseline(first_half), first->report);

  for (std::size_t i = half; i < records.size(); ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
  // The drain snapshot seals the second half as epoch 2; with a window of
  // one epoch, the first half must have aged out of the report entirely.
  const auto final_snap = service.drain();
  expect_reports_equal(span_baseline(second_half), final_snap->report);
}

TEST_F(ServeTest, WindowLargerThanSealedEpochsFoldsWhatExists) {
  // Regression: `serve --window K` with K beyond the sealed epoch count
  // must fold the epochs that exist and say so — not misreport coverage.
  const auto bytes = record_trace(*samples_);
  const auto baseline = analyze_baseline(bytes);
  const auto records = replay_records(bytes);
  const std::size_t half = records.size() / 2;

  std::vector<sflow::FlowSample> first_half;
  for (std::size_t i = 0; i < half; ++i)
    first_half.insert(first_half.end(), records[i].samples.begin(),
                      records[i].samples.end());

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 2;
  options.window_epochs = 8;  // far more than will ever be sealed
  ServeService service{vp, study_->fetcher(kWeek), options};
  service.start();

  for (std::size_t i = 0; i < half; ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
  wait_observed(service, half);
  const auto first = service.snapshot();
  EXPECT_EQ(first->window_epochs, 8u);
  EXPECT_EQ(first->epochs_folded, 1u);  // only one epoch exists yet
  expect_reports_equal(span_baseline(first_half), first->report);

  for (std::size_t i = half; i < records.size(); ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
  const auto final_snap = service.drain();
  EXPECT_EQ(final_snap->window_epochs, 8u);
  EXPECT_EQ(final_snap->epochs_folded, 2u);
  // Both sealed epochs fit inside the window, so the under-filled window
  // equals the cumulative analysis — nothing silently dropped or padded.
  expect_reports_equal(baseline, final_snap->report);
}

TEST_F(ServeTest, CumulativeSnapshotsReportFoldedEpochCoverage) {
  const auto bytes = record_trace(*samples_);
  const auto records = replay_records(bytes);
  ASSERT_GT(records.size(), 4u);

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 1;
  ServeService service{vp, study_->fetcher(kWeek), options};  // window 0 = cumulative
  service.start();
  for (std::size_t i = 0; i < records.size(); ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
  wait_observed(service, records.size());
  const auto first = service.snapshot();
  EXPECT_EQ(first->window_epochs, 0u);
  EXPECT_EQ(first->epochs_folded, 1u);
  const auto final_snap = service.drain();
  EXPECT_EQ(final_snap->epochs_folded, 2u);  // every sealed interval
}

/// The SIGTERM race: drain() closing the queues and joining the workers
/// while another thread is mid-snapshot(). Serialized by publish_mutex_;
/// the tsan preset is the actual assertion here — plus the invariant that
/// the drained result is still the full cumulative report.
TEST_F(ServeTest, DrainRacingInFlightSnapshotsStaysCumulative) {
  const auto bytes = record_trace(*samples_);
  const auto baseline = analyze_baseline(bytes);
  const auto records = replay_records(bytes);

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 2;
  ServeService service{vp, study_->fetcher(kWeek), options};
  service.start();
  for (std::size_t i = 0; i < records.size(); ++i)
    ASSERT_TRUE(offer_record(service, records[i], 1, i));

  std::thread snapshotter{[&] {
    for (int i = 0; i < 4; ++i) (void)service.snapshot();
  }};
  const auto final_snap = service.drain();  // races the snapshot loop
  snapshotter.join();

  ASSERT_TRUE(final_snap);
  // However the epochs interleaved, cumulative mode folds all of them.
  const auto settled = service.current();
  expect_reports_equal(baseline, settled->report);
  EXPECT_EQ(settled->accounting.intake.totals().received, records.size());
}

TEST_F(ServeTest, OverloadShedsFloodingAgentWithExactCounts) {
  const auto bytes = record_trace(*samples_);
  const auto records = replay_records(bytes);
  ASSERT_GT(records.size(), 8u);

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 2;
  options.queue_capacity = 4;  // tiny bound; the flood must shed, not stall
  ServeService service{vp, study_->fetcher(kWeek), options};

  // Flood before the workers start: with nobody draining, offer() must
  // keep returning (never block) and count each overflow against the one
  // flooding agent.
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < records.size(); ++i)
    accepted += offer_record(service, records[i], 1, i) ? 1 : 0;
  EXPECT_EQ(accepted, 4u);

  service.start();
  const auto snap = service.drain();
  const auto& acc = snap->accounting;
  const auto totals = acc.intake.totals();
  EXPECT_EQ(totals.received, records.size());
  EXPECT_EQ(totals.taken, 4u);
  EXPECT_EQ(totals.dropped, records.size() - 4u);
  EXPECT_EQ(totals.received, totals.taken + totals.dropped);
  for (const auto& row : acc.intake.rows) {
    EXPECT_EQ(row.counters.received,
              row.counters.taken + row.counters.dropped);
  }
  EXPECT_EQ(totals.taken, acc.datagrams + acc.decode_errors);
}

TEST_F(ServeTest, UndecodableDatagramsAreCountedNotFatal) {
  const auto bytes = record_trace(*samples_);
  const auto records = replay_records(bytes);
  const auto baseline = analyze_baseline(bytes);

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 2;
  ServeService service{vp, study_->fetcher(kWeek), options};
  service.start();
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(offer_record(service, records[i], 1, i));
    if (i % 50 == 0) {
      // Interleave junk a live socket could deliver: it must be counted
      // as a decode error and change nothing else.
      ASSERT_TRUE(service.offer(
          sflow::parse_frame(std::vector<std::byte>(31))));
    }
  }
  const auto snap = service.drain();
  expect_reports_equal(baseline, snap->report);
  const auto& acc = snap->accounting;
  const std::uint64_t junk = (records.size() + 49) / 50;
  EXPECT_EQ(acc.decode_errors, junk);
  const auto totals = acc.intake.totals();
  EXPECT_EQ(totals.taken, acc.datagrams + acc.decode_errors);
  EXPECT_EQ(acc.datagrams, records.size());
}

TEST_F(ServeTest, SequenceEvictionHookFiresUnderForgedAgentFlood) {
  const auto bytes = record_trace(*samples_);
  const auto records = replay_records(bytes);
  ASSERT_GT(records.size(), 8u);

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 1;
  options.max_agents = 2;  // far fewer rows than forged agents
  std::atomic<std::uint64_t> logged{0};
  options.eviction_log = [&logged](net::Ipv4Addr, std::uint32_t) {
    logged.fetch_add(1, std::memory_order_relaxed);
  };
  ServeService service{vp, study_->fetcher(kWeek), options};
  service.start();
  for (std::size_t i = 0; i < records.size(); ++i)
    ASSERT_TRUE(offer_record(service, records[i], /*agents=*/8, i));
  const auto snap = service.drain();

  // One table, one eviction count: every evicted row reached the hook,
  // and the folded totals stay exact.
  const auto& acc = snap->accounting;
  EXPECT_GT(acc.intake.evicted_agents, 0u);
  EXPECT_EQ(acc.intake.evicted_agents, logged.load());
  EXPECT_LE(acc.intake.rows.size(), 2u);
  const auto totals = acc.intake.totals();
  EXPECT_EQ(totals.received, records.size());
  EXPECT_EQ(totals.taken, acc.datagrams + acc.decode_errors);
}

TEST_F(ServeTest, UnixSocketReplayMatchesAnalyze) {
  const auto bytes = record_trace(*samples_);
  const auto baseline = analyze_baseline(bytes);
  const auto records = replay_records(bytes);

  sflow::SocketIntake intake;
  std::string error;
  const std::string path = testing::TempDir() + "ixpscope_serve_" +
                           std::to_string(::getpid()) + ".sock";
  if (!intake.listen_unix(path, &error))
    GTEST_SKIP() << "cannot bind unix socket: " << error;

  auto vp = study_->vantage();
  ServeOptions options;
  options.week = kWeek;
  options.threads = 4;
  ServeService service{vp, study_->fetcher(kWeek), options};
  service.start();

  // A unix datagram send blocks when the receiver's buffer is full, so
  // the sender runs on its own thread while this thread polls — the same
  // shape as `ixpscope replay` against `ixpscope serve`.
  std::thread sender_thread{[&] {
    std::string send_error;
    auto sender = sflow::DatagramSender::connect_unix(path, &send_error);
    ASSERT_TRUE(sender.ok()) << send_error;
    for (const auto& record : records)
      ASSERT_TRUE(sender.send_framed(record.offset, record.payload));
  }};

  std::uint64_t received = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (received < records.size() &&
         std::chrono::steady_clock::now() < deadline) {
    received += intake.poll_once(200, [&](sflow::DatagramEnvelope&& e) {
      (void)service.offer(std::move(e));
    });
  }
  sender_thread.join();
  intake.shutdown();
  ASSERT_EQ(received, records.size());

  const auto snap = service.drain();
  expect_reports_equal(baseline, snap->report);
  EXPECT_EQ(snap->accounting.intake.totals().received, records.size());
  EXPECT_EQ(snap->accounting.intake.totals().dropped, 0u);
}

}  // namespace
}  // namespace ixp::core
