// Set-up runs on up to two threads beside the caller (DESIGN.md §9.4):
// InternetModel fills its routing table on a helper while the caller
// builds the rest, and builds its geo table over the routing table's
// prefix index; Workload::generate_week draws on a producer thread while
// the caller runs the sink. These tests hold both to what a single thread
// produces, and carry the tsan label so ThreadSanitizer watches the
// hand-offs.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "serial_tables.hpp"
#include "stream_pins.hpp"

namespace ixp::gen {
namespace {

/// The test-scale model at seed 1, the seed of the first stream pins.
const InternetModel& model() {
  static const InternetModel instance{[] {
    ScaleConfig cfg = ScaleConfig::test();
    cfg.seed = 1;
    return cfg;
  }()};
  return instance;
}

TEST(ConcurrentSetup, TablesEqualASerialRebuild) {
  expect_tables_equal_serial_rebuild(model(), /*random=*/100'000);
}

TEST(ConcurrentSetup, ModelTablesHoldOneIndex) {
  // The geo table is a country column over the routing table's prefix
  // index: a second index would be a second 64 MiB top array.
  EXPECT_TRUE(model().geo_db().lpm().shares_index_with(model().routing().lpm()));
}

TEST(ConcurrentSetup, SinkRunsOnTheCallingThreadInStreamOrder) {
  const Workload w{model()};
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t pinned_weeks = 0;
  for (const StreamPin& pin : kStreamPins) {
    if (pin.seed != model().config().seed) continue;
    ++pinned_weeks;
    std::uint64_t calls = 0;
    std::uint64_t off_thread = 0;
    std::uint64_t out_of_order = 0;
    const WeeklyTruth truth =
        w.generate_week(pin.week, [&](const sflow::FlowSample& s) {
          if (std::this_thread::get_id() != caller) ++off_thread;
          if (s.sequence != calls) ++out_of_order;
          ++calls;
        });
    EXPECT_EQ(off_thread, 0u) << "week " << pin.week;
    EXPECT_EQ(out_of_order, 0u) << "week " << pin.week;
    EXPECT_EQ(calls, truth.total_samples) << "week " << pin.week;
    EXPECT_GT(calls, Workload::kRingBatches * Workload::kRingBatchSamples);
    EXPECT_EQ(stream_hash(w, pin.week), pin.hash) << "week " << pin.week;
  }
  EXPECT_EQ(pinned_weeks, 3u);
}

TEST(ConcurrentSetup, SinkExceptionReachesTheCallerAndLeavesTheWorkloadUsable) {
  const Workload w{model()};
  const StreamPin pin = kStreamPins[1];
  ASSERT_EQ(pin.seed, model().config().seed);
  const std::uint64_t total =
      w.generate_week(pin.week, [](const sflow::FlowSample&) {}).total_samples;
  const std::uint64_t batch = Workload::kRingBatchSamples;
  const std::uint64_t ring = Workload::kRingBatches * batch;
  ASSERT_GT(total, ring + 1);
  // The first sample; either side of the first batch edge; the first
  // sample after the ring wraps; the last sample.
  for (const std::uint64_t at :
       {std::uint64_t{0}, batch - 1, batch, ring, total - 1}) {
    std::uint64_t seen = 0;
    try {
      (void)w.generate_week(pin.week, [&](const sflow::FlowSample&) {
        if (seen++ == at) throw std::runtime_error{"sink failed"};
      });
      ADD_FAILURE() << "no exception at sample " << at;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "sink failed") << at;
    }
    EXPECT_EQ(seen, at + 1) << "the sink ran on after throwing at " << at;
    EXPECT_EQ(stream_hash(w, pin.week), pin.hash) << "after a throw at " << at;
  }
}

}  // namespace
}  // namespace ixp::gen
