// The activity table's byte counts are 56-bit fields (IpActivity), and
// ingest and merge add to them without an overflow check. This test holds
// that choice to the paper's scale: a bench-scale week's byte counts,
// scaled up by 1/volume to the full vantage point, must stay well under
// 2^56 — both the week's peering total (an upper bound on any one IP's
// count) and the heaviest IP's own count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "classify/dissector.hpp"
#include "core/week_shard.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"

namespace ixp::core {
namespace {

constexpr double kVolume = 1.0 / 256.0;
constexpr int kWeek = 45;
constexpr double kFieldLimit = 72057594037927936.0;  // 2^56

class ActivityByteBound : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    gen::ScaleConfig config = gen::ScaleConfig::bench(kVolume);
    config.seed = 1;
    const gen::InternetModel model{config};
    shard_ = new WeekShard{model.ixp(), kWeek};

    // Streamed in bounded batches: the week never sits in memory whole.
    std::vector<sflow::FlowSample> batch;
    std::uint64_t first_seq = 0;
    const auto flush = [&] {
      shard_->observe_batch(batch, first_seq);
      first_seq += batch.size();
      batch.clear();
    };
    gen::Workload{model}.generate_week(kWeek, [&](const sflow::FlowSample& s) {
      batch.push_back(s);
      if (batch.size() == 4096) flush();
    });
    flush();
  }

  static void TearDownTestSuite() { delete shard_; }

  static WeekShard* shard_;
};

WeekShard* ActivityByteBound::shard_ = nullptr;

TEST_F(ActivityByteBound, WeekTotalAtFullVolumeFitsWithMargin) {
  const double total = shard_->dissector().summarize().total_bytes;
  ASSERT_GT(total, 0.0);
  // Measured at seed 1: 3.26e13 B, 8.3e15 B at full volume, 8.6x under.
  EXPECT_LT(total / kVolume * 4.0, kFieldLimit) << total;
}

TEST_F(ActivityByteBound, LargestIpAtFullVolumeFitsWithMargin) {
  std::uint64_t largest = 0;
  for (const auto& [addr, info] : shard_->dissector().activity())
    largest = std::max<std::uint64_t>(largest, info.bytes);
  ASSERT_GT(largest, 0u);
  // Measured at seed 1: 8.4e11 B, 2.1e14 B at full volume, 335x under.
  EXPECT_LT(static_cast<double>(largest) / kVolume * 64.0, kFieldLimit)
      << largest;
}

}  // namespace
}  // namespace ixp::core
