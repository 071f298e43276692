// ParallelAnalyzer — the sharded, multi-threaded week-analysis engine.
//
// Splits a week's sample stream into batches, fans the batches out to N
// worker threads (each accumulating into its own WeekShard), then has the
// same threads fold the shards one address partition at a time, each
// partition in worker-index order, and runs the probe/aggregate phase on
// N threads too. Because WeekShard is a commutative monoid (exact integer
// byte tallies, OR-ed evidence, order-statistics host sets) and each
// partition's fold order is fixed, the N-thread report is byte-identical
// to the 1-thread report for any N — the determinism contract the parity
// tests pin down.
//
// One input shape: an ingest::IngestSource. The engine asks the source
// for a parallel plan (split()); a splittable source — a mapped trace, an
// in-memory span — hands back sub-sources that workers claim and decode
// concurrently with no sequence handoff, because every batch carries its
// own position-derived stream key. A serial source (no split() plan) is
// pumped by the calling thread through a bounded queue while the workers
// run the hot path (filtering, HTTP matching, evidence accumulation); a
// generated week (gen::WeekSource) arrives this way, its generation
// running beside the workers. The serve service does not use this path —
// it runs its own pump workers over LiveQueueSource.
//
// The engine exposes its two halves separately: reduce() is the
// observation phase alone — fan out, merge, hand back the week's fully
// merged WeekShard — and analyze() is reduce() plus the probe/aggregate
// phase. The split exists for the snapshot store: the weeks driver
// persists the merged shard (the mergeable artifact) alongside the
// report, which only reduce() can provide.
//
// Worker failures are contained (DESIGN.md §8): an exception escaping a
// worker can never deadlock the bounded queue or terminate the process.
// By default the queue is aborted, every thread is joined, and the first
// exception is rethrown on the calling thread. With lenient_workers set,
// the failing batch is dropped, the week completes, and the report comes
// back with degraded=true plus per-worker dropped-batch counts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/vantage_point.hpp"
#include "ingest/ingest_source.hpp"

namespace ixp::core {

struct ParallelOptions {
  /// Worker thread count; 0 means std::thread::hardware_concurrency().
  unsigned threads = 1;
  /// Samples per work unit handed to a worker.
  std::size_t batch_size = 512;
  /// Bound on batches buffered between the reader and the workers.
  std::size_t max_queued_batches = 64;
  /// When false (default), the first worker exception aborts the week and
  /// is rethrown from analyze(). When true, a throwing batch is dropped
  /// and the week completes with WeeklyReport::degraded set.
  bool lenient_workers = false;
  /// Instrumentation hook run on the worker thread before each batch is
  /// observed (metrics, chaos testing). An exception it throws is handled
  /// exactly like a classifier exception on that batch.
  std::function<void(std::span<const sflow::FlowSample>, std::uint64_t)>
      worker_hook;
};

class ParallelAnalyzer {
 public:
  explicit ParallelAnalyzer(VantagePoint& vantage, ParallelOptions options = {});

  /// Analyzes one week pulled from `source` — the single entry point for
  /// every input shape. The source's split() decides between concurrent
  /// claim-and-decode (mapped traces, spans) and a pumped bounded queue
  /// (serial sources); either way the report is byte-identical for any
  /// thread count. Check the source's ok()/stats() afterwards for ingest
  /// health.
  [[nodiscard]] WeeklyReport analyze(int week, ingest::IngestSource& source,
                                     const classify::ChainFetcher& fetch);

  /// The observation phase alone: fans `source` out across the workers
  /// and returns the fully merged WeekShard for `session`'s week — no
  /// probing, no aggregation, the session itself is not advanced. The
  /// caller absorbs the shard (analyze() does) or persists it (the weeks
  /// driver does, then absorbs a copy). When non-null, `worker_errors`
  /// receives the per-worker dropped-batch counts — all zero unless
  /// lenient_workers dropped batches.
  [[nodiscard]] WeekShard reduce(WeekSession& session,
                                 ingest::IngestSource& source,
                                 std::vector<std::uint64_t>* worker_errors =
                                     nullptr);

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

 private:
  VantagePoint* vantage_;
  ParallelOptions options_;
  unsigned threads_;
};

}  // namespace ixp::core
