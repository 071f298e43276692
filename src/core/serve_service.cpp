#include "core/serve_service.hpp"

#include <algorithm>
#include <utility>

namespace ixp::core {

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ingest::SourceStatus LiveQueueSource::next_batch(ingest::SampleBatch& out) {
  while (queues_->take(envelope_)) {
    if (!sflow::decode_into(envelope_.payload, scratch_)) {
      ++stats_.decode_errors;
      stats_.bytes_skipped += 4 + envelope_.payload.size();
      counters_->decode_errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    counters_->count(scratch_);
    ++stats_.datagrams;
    stats_.samples += scratch_.samples.size();
    // Accounted like a trace record: 4-byte length prefix plus payload —
    // the same arithmetic the virtual offset advances by.
    stats_.bytes_delivered += 4 + envelope_.payload.size();
    const std::uint64_t offset =
        envelope_.framed()
            ? envelope_.offset
            : virtual_offset_->fetch_add(4 + envelope_.payload.size(),
                                         std::memory_order_relaxed);
    if (scratch_.samples.empty()) continue;  // counters-only datagram
    out.samples = scratch_.samples;
    out.first_seq = sflow::stream_seq_key(offset, 0);
    return ingest::SourceStatus::kBatch;
  }
  return ingest::SourceStatus::kEnd;
}

ServeService::ServeService(VantagePoint& vantage, classify::ChainFetcher fetch,
                           ServeOptions options)
    : vantage_(&vantage),
      fetch_(std::move(fetch)),
      options_(options),
      queues_(options.queue_capacity, options.max_agents),
      session_(vantage.open_week(options.week)) {
  queues_.set_eviction_hook(options_.eviction_log);
}

ServeService::~ServeService() {
  if (started_) (void)drain();
}

void ServeService::start() {
  if (started_) return;
  started_ = true;
  const unsigned threads = resolve_threads(options_.threads);
  slots_.reserve(threads);
  sources_.reserve(threads);
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    slots_.push_back(std::make_unique<WorkerSlot>(session_.make_shard()));
    sources_.push_back(
        std::make_unique<LiveQueueSource>(queues_, virtual_offset_, decoded_));
  }
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

void ServeService::worker_loop(std::size_t index) {
  WorkerSlot& slot = *slots_[index];
  LiveQueueSource& source = *sources_[index];
  ingest::SampleBatch batch;
  while (source.next_batch(batch) == ingest::SourceStatus::kBatch) {
    {
      std::lock_guard lock{slot.mutex};
      slot.shard.observe_batch(batch.samples, batch.first_seq);
    }
    observed_batches_.fetch_add(1, std::memory_order_release);
  }
}

std::shared_ptr<const ServeSnapshot> ServeService::snapshot() {
  std::lock_guard publish_lock{publish_mutex_};

  // Seal the epoch: swap every worker's live shard for a fresh one. Each
  // swap holds that worker's lock only for the exchange; decoding and
  // queueing never pause. Every fold below is the partitioned fold on the
  // pump count's threads.
  const unsigned threads = std::max(1u, this->threads());
  std::vector<WeekShard> sealed;
  sealed.reserve(slots_.size() + 1);
  sealed.push_back(session_.make_shard());
  for (const auto& slot : slots_) {
    WeekShard fresh = session_.make_shard();
    {
      std::lock_guard lock{slot->mutex};
      std::swap(slot->shard, fresh);
    }
    sealed.push_back(std::move(fresh));
  }
  fold_shards(sealed, threads);

  if (options_.window_epochs == 0 && !epochs_.empty()) {
    // Cumulative: one ever-growing sealed shard, the epoch folded into it.
    std::vector<WeekShard> both;
    both.reserve(2);
    both.push_back(std::move(epochs_.front()));
    both.push_back(std::move(sealed[0]));
    fold_shards(both, threads);
    epochs_.front() = std::move(both[0]);
  } else {
    epochs_.push_back(std::move(sealed[0]));
    while (options_.window_epochs != 0 &&
           epochs_.size() > options_.window_epochs)
      epochs_.pop_front();
  }

  // The window report: fold copies of the retained epochs (merge consumes,
  // and the epochs must survive for the next snapshot), then run the
  // probe/aggregate phase. All outside the workers' locks.
  std::vector<WeekShard> window;
  window.reserve(epochs_.size() + 1);
  window.push_back(session_.make_shard());
  window.insert(window.end(), epochs_.begin(), epochs_.end());
  fold_shards(window, threads);

  auto snap = std::make_shared<ServeSnapshot>();
  snap->epoch = next_epoch_++;
  snap->window_epochs = options_.window_epochs;
  // In cumulative mode epochs_ is one ever-growing shard covering every
  // sealed interval; in windowed mode each deque entry is one interval.
  snap->epochs_folded = options_.window_epochs == 0
                            ? static_cast<std::size_t>(snap->epoch)
                            : epochs_.size();
  snap->report = vantage_->finish_week(std::move(window[0]), fetch_, threads);
  snap->accounting = accounting();
  published_ = snap;
  return snap;
}

std::shared_ptr<const ServeSnapshot> ServeService::current() const {
  std::lock_guard lock{publish_mutex_};
  return published_;
}

std::shared_ptr<const ServeSnapshot> ServeService::drain() {
  {
    std::lock_guard lock{publish_mutex_};
    if (drained_) return published_;
    drained_ = true;
  }
  queues_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  return snapshot();
}

ServeAccounting ServeService::accounting() const {
  ServeAccounting out;
  out.intake = queues_.stats();
  out.datagrams = decoded_.datagrams.load(std::memory_order_relaxed);
  out.flow_samples = decoded_.flow_samples.load(std::memory_order_relaxed);
  out.counter_samples =
      decoded_.counter_samples.load(std::memory_order_relaxed);
  out.decode_errors = decoded_.decode_errors.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ixp::core
