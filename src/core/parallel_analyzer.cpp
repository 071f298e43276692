#include "core/parallel_analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

namespace ixp::core {

namespace {

/// One queued unit of work: an owned copy of a pumped batch plus its
/// global stream position. Claim-mode workers never touch this — their
/// batches stay zero-copy views into the sub-source they drain.
struct Batch {
  std::vector<sflow::FlowSample> samples;
  std::uint64_t first_seq = 0;
};

/// Bounded MPMC queue: the reader blocks when the workers fall behind,
/// the workers block when the reader does. abort() is the poison pill of
/// the failure path — it drains the queue and wakes every blocked thread,
/// so neither a reader stuck in push() nor a worker stuck in pop() can
/// outlive a worker failure.
class BatchQueue {
 public:
  explicit BatchQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False when the queue was aborted (the batch is discarded).
  bool push(Batch&& batch) {
    std::unique_lock lock{mutex_};
    not_full_.wait(lock, [&] { return queue_.size() < capacity_ || aborted_; });
    if (aborted_) return false;
    queue_.push_back(std::move(batch));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  bool pop(Batch& out) {
    std::unique_lock lock{mutex_};
    not_empty_.wait(lock, [&] { return !queue_.empty() || closed_ || aborted_; });
    if (aborted_ || queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Clean end-of-stream: workers drain what is queued, then stop.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  /// Failure path: discard everything, wake everyone, refuse new work.
  void abort() {
    {
      std::lock_guard lock{mutex_};
      aborted_ = true;
      queue_.clear();
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Batch> queue_;
  std::size_t capacity_;
  bool closed_ = false;
  bool aborted_ = false;
};

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Captures the first worker exception; later ones are dropped (their
/// batches are already counted in the per-worker error tallies).
class FirstError {
 public:
  void capture() noexcept {
    std::lock_guard lock{mutex_};
    if (!error_) error_ = std::current_exception();
  }
  void rethrow_if_set() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;
};

/// Stamps the failure-containment outcome onto a finished report.
/// worker_errors is attached only when batches were actually dropped, so
/// a clean run's report stays byte-identical across thread counts.
WeeklyReport finish_flagged(WeekSession& session,
                            const classify::ChainFetcher& fetch,
                            unsigned threads,
                            std::vector<std::uint64_t>&& worker_errors) {
  WeeklyReport report = session.finish(fetch, threads);
  const std::uint64_t dropped = std::accumulate(
      worker_errors.begin(), worker_errors.end(), std::uint64_t{0});
  if (dropped > 0) {
    report.degraded = true;
    report.worker_errors = std::move(worker_errors);
  }
  return report;
}

}  // namespace

ParallelAnalyzer::ParallelAnalyzer(VantagePoint& vantage,
                                   ParallelOptions options)
    : vantage_(&vantage),
      options_(std::move(options)),
      threads_(resolve_threads(options_.threads)) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.max_queued_batches == 0) options_.max_queued_batches = 1;
}

WeeklyReport ParallelAnalyzer::analyze(int week, ingest::IngestSource& source,
                                       const classify::ChainFetcher& fetch) {
  WeekSession session = vantage_->open_week(week);
  std::vector<std::uint64_t> errors;
  WeekShard shard = reduce(session, source, &errors);
  session.absorb(std::move(shard));
  return finish_flagged(session, fetch, threads_, std::move(errors));
}

WeekShard ParallelAnalyzer::reduce(WeekSession& session,
                                   ingest::IngestSource& source,
                                   std::vector<std::uint64_t>* worker_errors) {
  const bool lenient = options_.lenient_workers;
  const auto& hook = options_.worker_hook;

  // Ask the source for a parallel plan. 8× over-partitioning keeps
  // workers busy when part costs are uneven (resync scans in corrupted
  // segments) and lets them finish within about one small part of each
  // other before the partitioned fold (at 2× a bench-scale week left the
  // workers ~20% idle); exactly one part when single-threaded makes the
  // walk literally the serial one.
  const std::size_t want = threads_ <= 1 ? 1 : std::size_t{threads_} * 8;
  std::vector<std::unique_ptr<ingest::IngestSource>> parts = source.split(want);

  if (threads_ <= 1) {
    // Serial: drain the parts in order (or the source itself if it has no
    // plan) on the calling thread. Same batch/seq bookkeeping as the
    // threaded paths so a dropped batch leaves the same sequence gap
    // regardless of thread count.
    WeekShard shard = session.make_shard();
    std::vector<std::uint64_t> errors(1, 0);
    const auto consume = [&](ingest::IngestSource& src) {
      ingest::SampleBatch batch;
      while (src.next_batch(batch) == ingest::SourceStatus::kBatch) {
        try {
          if (hook) hook(batch.samples, batch.first_seq);
          shard.observe_batch(batch.samples, batch.first_seq);
        } catch (...) {
          if (!lenient) throw;
          ++errors[0];
        }
      }
    };
    if (parts.empty()) {
      consume(source);
    } else {
      for (const auto& part : parts) consume(*part);
    }
    if (worker_errors != nullptr) *worker_errors = std::move(errors);
    return shard;
  }

  std::vector<WeekShard> shards;
  shards.reserve(threads_);
  for (unsigned t = 0; t < threads_; ++t) shards.push_back(session.make_shard());
  std::vector<std::uint64_t> errors(threads_, 0);
  FirstError first_error;

  // Every worker observes into its own shard; once all are joined, the
  // shards are folded one dissector partition at a time on the same
  // number of threads (fold_shards), each partition in worker-index
  // order, so shard 0 comes out the same for any schedule.
  const auto fold = [&] {
    fold_shards(shards, threads_);
    if (worker_errors != nullptr) *worker_errors = std::move(errors);
    return std::move(shards[0]);
  };

  if (!parts.empty()) {
    // Claim mode: workers claim whole sub-sources via an atomic counter
    // and decode them concurrently — no pump thread, no copies. A strict
    // failure stops claiming; workers already inside a part finish or
    // bail on their own batch boundary.
    std::atomic<std::size_t> next_part{0};
    std::atomic<bool> aborted{false};

    std::vector<std::thread> workers;
    workers.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        WeekShard& shard = shards[t];
        for (std::size_t p = next_part.fetch_add(1);
             p < parts.size() && !aborted.load(std::memory_order_relaxed);
             p = next_part.fetch_add(1)) {
          ingest::IngestSource& part = *parts[p];
          ingest::SampleBatch batch;
          while (part.next_batch(batch) == ingest::SourceStatus::kBatch) {
            try {
              if (hook) hook(batch.samples, batch.first_seq);
              shard.observe_batch(batch.samples, batch.first_seq);
            } catch (...) {
              ++errors[t];
              if (!lenient) {
                first_error.capture();
                aborted.store(true, std::memory_order_relaxed);
                return;
              }
            }
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    first_error.rethrow_if_set();
    return fold();
  }

  // Pump mode: the source is serial (a live feed), so the calling thread
  // pulls batches — copying each view into queue-owned storage, since the
  // view dies on the next pull — and the workers run the hot path behind
  // the bounded queue.
  BatchQueue queue{options_.max_queued_batches};
  std::vector<std::thread> workers;
  workers.reserve(threads_);
  for (unsigned t = 0; t < threads_; ++t) {
    workers.emplace_back([&, t] {
      WeekShard& shard = shards[t];
      Batch batch;
      while (queue.pop(batch)) {
        try {
          if (hook) hook(batch.samples, batch.first_seq);
          shard.observe_batch(batch.samples, batch.first_seq);
        } catch (...) {
          ++errors[t];
          if (!lenient) {
            first_error.capture();
            queue.abort();
            return;
          }
        }
      }
    });
  }

  try {
    ingest::SampleBatch pulled;
    while (source.next_batch(pulled) == ingest::SourceStatus::kBatch) {
      Batch batch;
      batch.samples.assign(pulled.samples.begin(), pulled.samples.end());
      batch.first_seq = pulled.first_seq;
      if (!queue.push(std::move(batch))) break;  // a worker aborted the week
    }
  } catch (...) {
    // The source itself threw: unblock and collect every worker before
    // letting the exception continue — a joinable thread in a destructor
    // would terminate the process.
    queue.abort();
    for (auto& worker : workers) worker.join();
    throw;
  }
  queue.close();
  for (auto& worker : workers) worker.join();
  first_error.rethrow_if_set();
  return fold();
}

}  // namespace ixp::core
