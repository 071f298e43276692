// WeekShard — the mergeable unit of per-week observation state.
//
// A shard owns everything one worker accumulates while chewing through a
// slice of the week's sample stream: the Figure-1 filter counters and the
// traffic dissector's per-IP evidence. Shards form a commutative monoid
// under merge(): splitting a week's samples across any number of shards
// and folding them back together — in any order — reproduces the
// single-shard state bit for bit. That property is what lets the parallel
// engine promise that an N-thread analysis emits a report byte-identical
// to the 1-thread run.
//
// The contract rests on three design rules (see DESIGN.md §7):
//   1. byte tallies are exact integers (frame_length x sampling_rate),
//      accumulated in std::uint64_t — integer addition is associative;
//   2. per-IP evidence is OR-ed bit flags and integer counts;
//   3. bounded Host-header sets keep the k smallest (first_seq, name)
//      keys, an exact order statistic of the union.
//
// The dissector's tables are partitioned by address (dissector.hpp), and
// every fold — merge() of a pair, fold_shards() of a worker set — is the
// per-partition fold run over every partition, then the scalar tallies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "classify/dissector.hpp"
#include "classify/peering_filter.hpp"
#include "util/parallel_for.hpp"

namespace ixp::store {
class SnapshotCodec;
}  // namespace ixp::store

namespace ixp::core {

class WeekShard {
 public:
  WeekShard(const fabric::Ixp& ixp, int week)
      : filter_(ixp, week) {}

  /// Runs a batch through the filter cascade; the samples occupy stream
  /// positions [first_seq, first_seq + batch.size()) (a sample's position
  /// orders Host-header tie-breaks). The filter stages peering survivors
  /// in one pass, their hot fields derived once, into a
  /// structure-of-arrays FrameBatch (reused across batches) for the
  /// dissector's batch ingest, which prefetches upcoming table slots.
  /// The staged payload views point into `batch`, so they are drained
  /// before this call returns.
  void observe_batch(std::span<const sflow::FlowSample> batch,
                     std::uint64_t first_seq) {
    staged_.clear();
    filter_.stage(batch, first_seq, counters_, staged_);
    samples_observed_ += batch.size();
    dissector_.ingest(staged_);
  }

  /// Folds another shard of the same week into this one; associative and
  /// commutative. The other shard is consumed.
  void merge(WeekShard&& other) {
    for (std::size_t p = 0; p < classify::kPartitions; ++p)
      merge_partition(other, p);
    merge_tallies(other);
  }

  /// Folds partition `p` of other's dissector tables into this shard's.
  /// Distinct partitions may be folded on different threads at once.
  void merge_partition(WeekShard& other, std::size_t p) {
    dissector_.merge_partition(other.dissector_, p);
  }

  /// Folds the unpartitioned state: filter counters, sample count, total
  /// bytes. With every partition folded too, other is consumed.
  void merge_tallies(WeekShard& other) {
    counters_.merge(other.counters_);
    dissector_.merge_tallies(other.dissector_);
    samples_observed_ += other.samples_observed_;
    other.counters_ = classify::FilterCounters{};
    other.samples_observed_ = 0;
  }

  [[nodiscard]] int week() const noexcept { return filter_.week(); }
  [[nodiscard]] const classify::FilterCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const classify::TrafficDissector& dissector() const noexcept {
    return dissector_;
  }
  [[nodiscard]] std::uint64_t samples_observed() const noexcept {
    return samples_observed_;
  }

 private:
  friend class VantagePoint;
  /// The snapshot codec (store/) reads and reconstructs shard internals
  /// when persisting a completed week.
  friend class store::SnapshotCodec;

  classify::PeeringFilter filter_;
  classify::FilterCounters counters_;
  classify::TrafficDissector dissector_;
  std::uint64_t samples_observed_ = 0;
  classify::FrameBatch staged_;  // observe_batch scratch, reused
};

/// Folds shards[1..] into shards[0], consuming them. Partitions are
/// claimed by up to `threads` threads (the caller among them), and each
/// folds the shards in index order, so shards[0] comes out the same for
/// any thread count.
inline void fold_shards(std::span<WeekShard> shards, unsigned threads) {
  util::parallel_for(classify::kPartitions, threads, [&](std::size_t p) {
    for (std::size_t t = 1; t < shards.size(); ++t)
      shards[0].merge_partition(shards[t], p);
  });
  for (std::size_t t = 1; t < shards.size(); ++t)
    shards[0].merge_tallies(shards[t]);
}

}  // namespace ixp::core
