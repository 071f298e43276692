// Set-up runs on up to three threads (DESIGN.md §9.4): InternetModel fills
// its routing and geo tables on two helpers while the caller builds the
// rest, and Workload::generate_week draws on a producer thread while the
// caller runs the sink. These tests hold both to what a single thread
// produces, and carry the tsan label so ThreadSanitizer watches the
// hand-offs.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "geo/geo_database.hpp"
#include "net/routing_table.hpp"
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
  const InternetModel& m = model();
  net::RoutingTable routing;
  geo::GeoDatabase geo;
  for (const PrefixRecord& p : m.prefixes()) {
    routing.announce(p.prefix, m.ases()[p.as_index].asn);
    geo.assign(p.prefix, m.ases()[p.as_index].country);
  }
  ASSERT_EQ(m.routing().prefix_count(), routing.prefix_count());
  ASSERT_EQ(m.geo_db().prefix_count(), geo.prefix_count());

  const std::vector<net::Route> built = m.routing().routes();
  const std::vector<net::Route> serial = routing.routes();
  ASSERT_EQ(built.size(), serial.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(built[i].prefix, serial[i].prefix) << i;
    EXPECT_EQ(built[i].origin, serial[i].origin) << i;
  }

  for (const PrefixRecord& p : m.prefixes()) {
    const net::Ipv4Addr ends[] = {p.prefix.address_at(0),
                                  p.prefix.address_at(p.prefix.size() - 1)};
    for (const net::Ipv4Addr addr : ends) {
      const net::Route* got = m.routing().route_ptr(addr);
      const net::Route* want = routing.route_ptr(addr);
      ASSERT_NE(got, nullptr) << addr.to_string();
      ASSERT_NE(want, nullptr) << addr.to_string();
      EXPECT_EQ(got->prefix, want->prefix) << addr.to_string();
      EXPECT_EQ(got->origin, want->origin) << addr.to_string();
      EXPECT_EQ(m.routing().route_index(got), routing.route_index(want))
          << addr.to_string();
      EXPECT_EQ(m.geo_db().country_of(addr), geo.country_of(addr))
          << addr.to_string();
    }
  }
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
