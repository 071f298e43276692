// ServeService — the always-on collector behind `ixpscope serve`.
//
// Offline analysis gets a whole week as one input; the service gets the
// same stream one datagram at a time, from many concurrent agents, with
// no end in sight. The pieces:
//
//   socket/inject -> AgentQueues (bounded, drop-counting; the one
//                    per-agent table, sequence gaps included)
//        -> N pump workers, each pulling through a LiveQueueSource
//           (the same ingest::IngestSource API the offline analyzer
//           consumes) into a per-worker WeekShard
//        -> snapshot(): shards swapped out atomically, merged into one
//           sealed epoch, window folded, probe/aggregate phase run —
//           all outside the workers' locks, so ingest never pauses for
//           publication
//        -> drain(): close the queues, join the workers, publish the
//           final snapshot (the clean-SIGTERM path).
//
// Determinism carries over from the offline engine: every datagram is
// observed under a stream key derived from a trace offset — the replay
// frame's original offset, or a server-assigned virtual offset advancing
// exactly as TraceWriter would have laid the datagram down. A trace
// replayed datagram-by-datagram therefore produces a final cumulative
// snapshot byte-identical to `ixpscope analyze` of the same file, for any
// agent count and any worker count.
//
// The sliding window: WeekShard merge is a monoid with no inverse, so
// "last K epochs" cannot be maintained by subtraction. Instead each
// snapshot seals the interval since the previous one as an epoch shard;
// the published report is the fold of copies of the retained epochs
// (window_epochs == 0 folds everything ever sealed — the cumulative mode
// the parity tests pin against offline analysis).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/socket_intake.hpp"

namespace ixp::core {

struct ServeOptions {
  int week = 45;
  /// Pump worker count (0 = hardware concurrency).
  unsigned threads = 1;
  /// Per-agent bound on queued datagrams; beyond it the agent's own
  /// datagrams are dropped and counted (the service never stalls intake).
  std::size_t queue_capacity = sflow::AgentQueues::kDefaultCapacity;
  /// Cap on agent rows in the intake table (FIFO eviction beyond it).
  std::size_t max_agents = sflow::AgentQueues::kDefaultMaxAgents;
  /// Published report covers the last `window_epochs` snapshot intervals;
  /// 0 = cumulative since start.
  std::size_t window_epochs = 0;
  /// Observer for agent-row evictions (agent cap hit); also counted in
  /// ServeAccounting::intake. Runs on the thread calling offer().
  sflow::AgentQueues::EvictionHook eviction_log;
};

/// Everything the service knows about where datagrams went. The exact-sum
/// invariants, checked by the overload tests:
///   per agent and total: received == taken + dropped
///   total taken == datagrams + decode_errors
/// Sequence gaps (datagrams an agent sent that never arrived) are the
/// intake rows' `lost` counters.
struct ServeAccounting {
  sflow::AgentQueuesStats intake;
  /// Datagrams the pump workers decoded, and the samples they carried.
  std::uint64_t datagrams = 0;
  std::uint64_t flow_samples = 0;
  std::uint64_t counter_samples = 0;
  std::uint64_t decode_errors = 0;
};

/// The pump workers' shared decode tallies behind ServeAccounting.
struct DecodeCounters {
  std::atomic<std::uint64_t> datagrams{0};
  std::atomic<std::uint64_t> flow_samples{0};
  std::atomic<std::uint64_t> counter_samples{0};
  std::atomic<std::uint64_t> decode_errors{0};

  /// Tallies one successfully decoded datagram.
  void count(const sflow::Datagram& datagram) {
    datagrams.fetch_add(1, std::memory_order_relaxed);
    flow_samples.fetch_add(datagram.samples.size(), std::memory_order_relaxed);
    counter_samples.fetch_add(datagram.counters.size(),
                              std::memory_order_relaxed);
  }
};

struct ServeSnapshot {
  /// 1 for the first publication, +1 per snapshot; the final drain
  /// snapshot carries the next number in sequence.
  std::uint64_t epoch = 0;
  /// The configured window (0 = cumulative), echoed for consumers.
  std::size_t window_epochs = 0;
  /// How many sealed epochs the report actually folds. Early in a
  /// windowed run this is below window_epochs — fewer epochs exist than
  /// the window asks for, and the report honestly covers only what has
  /// been sealed so far rather than pretending a full window.
  std::size_t epochs_folded = 0;
  WeeklyReport report;
  ServeAccounting accounting;
};

/// ingest::IngestSource over the service's AgentQueues: take() one
/// envelope, decode it, hand its samples out under the offset-derived
/// stream key. Several pump workers each own one LiveQueueSource over the
/// same queues — takes are disjoint, so the sources partition the stream.
/// next_batch() blocks until a datagram arrives or the queues close;
/// stats() reports the live-feed taxonomy in ReaderStats terms (a
/// datagram is accounted like a trace record: 4-byte length prefix plus
/// payload).
class LiveQueueSource final : public ingest::IngestSource {
 public:
  LiveQueueSource(sflow::AgentQueues& queues,
                  std::atomic<std::uint64_t>& virtual_offset,
                  DecodeCounters& counters)
      : queues_(&queues),
        virtual_offset_(&virtual_offset),
        counters_(&counters) {}

  ingest::SourceStatus next_batch(ingest::SampleBatch& out) override;

  /// Safe to read from the pulling thread, or from anywhere once the
  /// queues are closed and the puller joined.
  [[nodiscard]] sflow::ReaderStats stats() const override { return stats_; }

 private:
  sflow::AgentQueues* queues_;
  std::atomic<std::uint64_t>* virtual_offset_;
  DecodeCounters* counters_;
  sflow::DatagramEnvelope envelope_;
  sflow::Datagram scratch_;
  sflow::ReaderStats stats_;
};

class ServeService {
 public:
  ServeService(VantagePoint& vantage, classify::ChainFetcher fetch,
               ServeOptions options);
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  /// The intake hand-off; bind SocketIntake's sink to offer(), or call it
  /// directly to inject datagrams without sockets.
  bool offer(sflow::DatagramEnvelope&& envelope) {
    return queues_.offer(std::move(envelope));
  }
  [[nodiscard]] sflow::AgentQueues& queues() noexcept { return queues_; }

  /// Spawns the pump workers. Call once.
  void start();

  /// Seals the epoch since the last snapshot and publishes the window
  /// report. Heavy (probe + aggregate) but runs outside the workers'
  /// shard locks; ingest continues meanwhile. Serialized internally.
  std::shared_ptr<const ServeSnapshot> snapshot();

  /// Last published snapshot (nullptr before the first snapshot()).
  [[nodiscard]] std::shared_ptr<const ServeSnapshot> current() const;

  /// Clean shutdown: stop intake, drain the queues, join the workers,
  /// publish and return the final snapshot. Idempotent.
  std::shared_ptr<const ServeSnapshot> drain();

  [[nodiscard]] ServeAccounting accounting() const;
  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// Sample-carrying datagrams observed into a shard so far. Once this
  /// reaches the number offered, a subsequent snapshot() is guaranteed to
  /// cover them — the quiesce point tests (and operators) poll to get a
  /// deterministic epoch boundary out of an asynchronous pipeline.
  [[nodiscard]] std::uint64_t observed_batches() const noexcept {
    return observed_batches_.load(std::memory_order_acquire);
  }

 private:
  struct WorkerSlot {
    std::mutex mutex;
    WeekShard shard;
    explicit WorkerSlot(WeekShard&& s) : shard(std::move(s)) {}
  };

  void worker_loop(std::size_t index);

  VantagePoint* vantage_;
  classify::ChainFetcher fetch_;
  ServeOptions options_;

  sflow::AgentQueues queues_;
  DecodeCounters decoded_;
  /// Virtual trace offset for unframed (live) datagrams: starts where a
  /// fresh trace's first record would, advances by the bytes TraceWriter
  /// would have written — so live keys are exactly the keys a recorded
  /// trace of the same arrival order would produce.
  std::atomic<std::uint64_t> virtual_offset_{sflow::kTraceHeaderBytes};

  WeekSession session_;  ///< shard mint + week identity; never fed directly
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::unique_ptr<LiveQueueSource>> sources_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> observed_batches_{0};
  bool started_ = false;
  bool drained_ = false;

  mutable std::mutex publish_mutex_;  ///< serializes snapshot()/drain()
  std::deque<WeekShard> epochs_;      ///< sealed epochs, oldest first
  std::uint64_t next_epoch_ = 1;
  std::shared_ptr<const ServeSnapshot> published_;
};

}  // namespace ixp::core
