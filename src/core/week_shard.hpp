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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "classify/dissector.hpp"
#include "classify/peering_filter.hpp"

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
  /// orders Host-header tie-breaks). Peering survivors have their hot
  /// fields derived once, here, into a structure-of-arrays FrameBatch
  /// (reused across batches) and handed to the dissector's batch ingest,
  /// which prefetches upcoming table slots. The staged payload views
  /// point into `batch`, so they are drained before this call returns.
  void observe_batch(std::span<const sflow::FlowSample> batch,
                     std::uint64_t first_seq) {
    staged_.clear();
    for (const auto& sample : batch) {
      auto peering = filter_.filter(sample, counters_);
      if (peering) {
        peering->seq = first_seq;
        staged_.push(*peering);
      }
      ++first_seq;
      ++samples_observed_;
    }
    dissector_.ingest(staged_);
  }

  /// Folds another shard of the same week into this one; associative and
  /// commutative. The other shard is consumed.
  void merge(WeekShard&& other) {
    counters_.merge(other.counters_);
    dissector_.merge(std::move(other.dissector_));
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

}  // namespace ixp::core
