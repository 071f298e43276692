// The serve intake's layers, measured inside the `week` workload's traced
// run on that workload's inputs: week 45 at volume 1/256, in memory.
//
// The trace's first kReplayRecords records are replayed into ServeService
// as `ixpscope replay --agents 16` would send them: each record's agent
// rewritten round-robin over 16 agents and framed with its original offset
// by encode_replay_frame. One generator thread sends on a fixed schedule at
// --serve-rate datagrams per second, whether or not the service keeps up;
// 2 pump workers observe (window_epochs = 0, so reports are cumulative); a
// publisher thread takes two snapshots, at an eighth and a quarter of the
// records observed; then drain() publishes the final snapshot.
//
// Lag is measured from each datagram's scheduled send time until
// observed_batches() covers its position, as seen by the generator, which
// polls the counter every 100 us while it waits to send, and after the last
// send until everything is covered.
// The drained report must be byte-identical to an offline analysis of the
// same record prefix, and intake accounting must balance exactly. A replay
// in which the generator itself fell behind its schedule is invalid: it is
// reported and replayed again.
#include <algorithm>
#include <iostream>
#include <thread>

#include "core/parallel_analyzer.hpp"
#include "core/serve_service.hpp"
#include "sflow/socket_intake.hpp"
#include "sflow/trace_segment.hpp"
#include "store/snapshot_codec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ixp;

constexpr int kWeek = 45;
constexpr std::uint32_t kAgents = 16;
constexpr unsigned kPumpWorkers = 2;
/// Records per replay: a prefix of the week.
constexpr std::size_t kReplayRecords = 6144;
/// How often the generator samples observed_batches() between sends.
constexpr auto kPollInterval = std::chrono::microseconds(100);
/// A replay is invalid when the generator's p99 lateness exceeds this.
constexpr double kMaxGenLateP99Ms = 20.0;
/// Replays tried before the run gives up on a valid one.
constexpr int kReplayTries = 3;

struct Record {
  std::uint64_t offset = 0;  ///< of the record's length prefix in the trace
  std::span<const std::byte> payload;
};

std::vector<Record> list_records(const sflow::MappedTrace& trace) {
  std::vector<Record> records;
  for (const sflow::TraceSegment& segment :
       sflow::TraceSegmenter::split(trace.bytes(), 1)) {
    sflow::TraceCursor cursor{trace.bytes(), segment};
    std::uint64_t seq = 0;
    while (!cursor.read_record(seq).empty())
      records.push_back({cursor.record_offset(), cursor.record_bytes()});
  }
  return records;
}

/// Where one replay's time went, as the generator and publisher saw it.
struct Replay {
  std::vector<double> lag_ms;   ///< per datagram, scheduled send -> covered
  std::vector<double> late_ms;  ///< per datagram, scheduled -> actual send
  std::uint64_t backlog_max = 0;
  double parse_s = 0.0;
  double offer_s = 0.0;
  std::vector<double> snapshot_s;
  double drain_call_s = 0.0;
  std::uint64_t allocs = 0;
  std::shared_ptr<const core::ServeSnapshot> final_snapshot;

  [[nodiscard]] double snapshot_total_s() const {
    double total = 0.0;
    for (const double s : snapshot_s) total += s;
    return total;
  }
};

/// Replays records [0, n) at `rate` datagrams per second.
Replay replay(const World& world, const std::vector<Record>& records,
              std::size_t n, double rate, bool time_calls) {
  Replay out;
  core::ServeOptions options;
  options.week = kWeek;
  options.threads = kPumpWorkers;
  options.window_epochs = 0;
  core::ServeService service{*world.vantage, world.fetcher(kWeek), options};

  const std::uint64_t allocs_before = alloc_count();
  service.start();
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  };

  // Publisher: count-triggered snapshots at 1/8 and 1/4 of the records,
  // early enough to finish before the last send, so the drain does not
  // queue behind them. A jthread is stopped and joined on every exit path.
  std::jthread publisher{[&](const std::stop_token& stop) {
    for (const std::size_t at : {n / 8, n / 4}) {
      while (service.observed_batches() < at && !stop.stop_requested())
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (stop.stop_requested()) return;
      const auto t0 = Clock::now();
      (void)service.snapshot();
      out.snapshot_s.push_back(seconds_since(t0));
    }
  }};

  out.lag_ms.resize(n);
  out.late_ms.resize(n);
  std::size_t covered = 0;
  const auto poll = [&](std::size_t offered) {
    const auto now = Clock::now();
    const auto observed =
        static_cast<std::size_t>(std::min<std::uint64_t>(service.observed_batches(), n));
    for (; covered < observed; ++covered)
      out.lag_ms[covered] = seconds_between(due(covered), now) * 1e3;
    out.backlog_max = std::max<std::uint64_t>(out.backlog_max, offered - observed);
  };

  std::vector<std::byte> patched;
  for (std::size_t i = 0; i < n; ++i) {
    // Sleep until the send is due, polling coverage every kPollInterval.
    for (auto now = Clock::now(); now < due(i); now = Clock::now()) {
      poll(i);
      std::this_thread::sleep_until(std::min(due(i), now + kPollInterval));
    }
    out.late_ms[i] = seconds_between(due(i), Clock::now()) * 1e3;
    const Record& record = records[i];
    patched.assign(record.payload.begin(), record.payload.end());
    const std::uint32_t agent =
        net::Ipv4Addr{10, 99, 0, 0}.value() + static_cast<std::uint32_t>(i % kAgents);
    for (int b = 0; b < 4; ++b)
      patched[4 + b] = static_cast<std::byte>(agent >> (24 - 8 * b));
    const std::vector<std::byte> frame =
        sflow::encode_replay_frame(record.offset, patched);
    if (time_calls) {
      const auto t0 = Clock::now();
      sflow::DatagramEnvelope envelope = sflow::parse_frame(frame);
      const auto t1 = Clock::now();
      (void)service.offer(std::move(envelope));
      out.parse_s += seconds_between(t0, t1);
      out.offer_s += seconds_since(t1);
    } else {
      (void)service.offer(sflow::parse_frame(frame));
    }
    poll(i + 1);
  }
  const auto last_due = due(n == 0 ? 0 : n - 1);
  // Until every datagram is observed, shed or undecodable (the last two
  // never will be), or a minute has passed.
  const auto lost = [&] {
    const core::ServeAccounting a = service.accounting();
    return a.intake.totals().dropped + a.decode_errors;
  };
  while (covered + lost() < n && seconds_since(last_due) < 60.0) {
    std::this_thread::sleep_for(kPollInterval);
    poll(n);
  }
  publisher.request_stop();
  publisher.join();

  const auto t0 = Clock::now();
  out.final_snapshot = service.drain();
  out.drain_call_s = seconds_since(t0);
  out.allocs = alloc_count() - allocs_before;
  out.lag_ms.resize(covered);
  return out;
}

/// The output checks of one replay: exact intake accounting, nothing shed
/// or undecodable, and the drained cumulative report byte-identical to the
/// offline one. Returns whether the replay is valid (its generator kept to
/// schedule).
bool check_replay(const Replay& r, std::size_t n,
                  const std::vector<std::byte>& reference, Result& result) {
  const core::ServeAccounting& acct = r.final_snapshot->accounting;
  const sflow::AgentIntakeCounters totals = acct.intake.totals();
  result.attempt(n);
  result.check(totals.received == totals.taken + totals.dropped,
               "intake accounting: received != taken + dropped");
  result.check(totals.received == n, "intake did not receive every datagram");
  result.fail(totals.dropped, "datagrams shed");
  result.fail(acct.decode_errors, "datagrams failed to decode");
  result.check(store::SnapshotCodec::encode_report(r.final_snapshot->report) ==
                   reference,
               "drained report differs from the offline analysis");
  const double late_p99 = quantile(r.late_ms, 0.99);
  std::cout << "serve: replay lag p50 " << quantile(r.lag_ms, 0.5) << " ms, p99 "
            << quantile(r.lag_ms, 0.99) << " ms, drain() " << r.drain_call_s
            << " s, backlog max " << r.backlog_max << ", generator late p99 "
            << late_p99 << " ms\n";
  if (late_p99 <= kMaxGenLateP99Ms) return true;
  std::cout << "serve: replay INVALID, the generator fell behind its schedule "
               "(p99 " << late_p99 << " ms late); replaying again\n";
  return false;
}

/// Replays until one is valid; fails the run's check after kReplayTries
/// invalid ones.
Replay valid_replay(const World& world, const std::vector<Record>& records,
                    std::size_t n, double rate, bool time_calls,
                    const std::vector<std::byte>& reference, Result& result) {
  for (int attempt = 1;; ++attempt) {
    Replay r = replay(world, records, n, rate, time_calls);
    if (check_replay(r, n, reference, result)) return r;
    if (attempt == kReplayTries) {
      result.check(false, "every replay fell behind its schedule");
      return r;
    }
  }
}

}  // namespace

void serve_layers(const Args& args, const World& world,
                  const sflow::MappedTrace& trace, Tracer& tracer,
                  Result& result, Layers& layers) {
  if (args.serve_rate <= 0.0) {
    result.fail(1, "serve needs --serve-rate");
    return;
  }
  std::vector<Record> records;
  {
    auto span = tracer.span("harness.stage_records");
    records = list_records(trace);
  }
  const std::size_t n = std::min(records.size(), kReplayRecords);
  std::cout << "serve: replaying the first " << n << " of " << records.size()
            << " records at " << args.serve_rate << " datagrams/s\n";

  // The reference: an offline analysis of the same record prefix.
  std::vector<std::byte> reference;
  {
    const std::uint64_t end = n < records.size() ? records[n].offset : trace.size();
    ingest::MappedSource source{trace.bytes().first(end)};
    core::ParallelOptions options;
    options.threads = nproc();
    core::ParallelAnalyzer analyzer{*world.vantage, options};
    reference = store::SnapshotCodec::encode_report(
        analyzer.analyze(kWeek, source, world.fetcher(kWeek)));
    result.check(!source.stats().degraded(), "reference trace prefix is damaged");
    if (args.break_reference) reference[reference.size() / 2] ^= std::byte{0x5a};
  }

  // An untimed replay first, then one with per-call timing.
  (void)valid_replay(world, records, n, args.serve_rate, false, reference, result);
  Replay r;
  {
    auto span = tracer.span("core.serve_replay");
    r = valid_replay(world, records, n, args.serve_rate, true, reference, result);
    tracer.aggregate("sflow.parse_frame", r.parse_s, n);
    tracer.aggregate("core.offer", r.offer_s, n);
    tracer.aggregate("core.snapshot", r.snapshot_total_s(), r.snapshot_s.size());
    tracer.aggregate("core.drain", r.drain_call_s, 1);
  }

  const double datagrams = static_cast<double>(std::max<std::size_t>(1, n));
  const sflow::AgentIntakeCounters totals =
      r.final_snapshot->accounting.intake.totals();
  layers["sflow.frame_parse_ns"] = r.parse_s * 1e9 / datagrams;
  layers["core.offer_ns"] = r.offer_s * 1e9 / datagrams;
  layers["core.serve_backlog_max"] = static_cast<double>(r.backlog_max);
  layers["core.snapshot_s"] = median(r.snapshot_s);
  layers["core.drain_s"] = r.drain_call_s;
  layers["core.serve_allocs_per_datagram"] = static_cast<double>(r.allocs) / datagrams;
  layers["core.serve_lag_p99_ms"] = quantile(r.lag_ms, 0.99);
  layers["sflow.shed_ratio"] =
      static_cast<double>(totals.dropped) /
      static_cast<double>(std::max<std::uint64_t>(1, totals.received));
  layers["harness.gen_late_p99_ms"] = quantile(r.late_ms, 0.99);
}

}  // namespace perfbench
