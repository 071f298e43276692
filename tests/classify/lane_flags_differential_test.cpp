// Differential fuzz suite for the LaneFlags kernel (DESIGN.md §14):
// LaneFlags::compute, plus the pinned SSE2 lane kernel where the target
// has SSE2, must be byte-identical to LaneFlags::compute_scalar on
// random lanes and on every tail length below a few vectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "classify/lane_flags.hpp"
#include "util/rng.hpp"

namespace ixp::classify {
namespace {

/// Checks LaneFlags::compute and, where the target has SSE2, the pinned
/// SSE2 kernel against compute_scalar on the same arrays.
void expect_lane_tiers_agree(const std::uint16_t* src_port,
                             const std::uint16_t* dst_port,
                             const std::uint8_t* tcp, const std::uint8_t* ind,
                             std::size_t n, int trial) {
  std::vector<std::uint8_t> ref_src(n), ref_dst(n);
  LaneFlags::compute_scalar(src_port, dst_port, tcp, ind, n, ref_src.data(),
                            ref_dst.data());
  const auto check = [&](auto&& tier_fn, const char* tier) {
    std::vector<std::uint8_t> got_src(n), got_dst(n);
    tier_fn(src_port, dst_port, tcp, ind, n, got_src.data(), got_dst.data());
    ASSERT_EQ(got_src, ref_src) << tier << " trial " << trial << " n=" << n;
    ASSERT_EQ(got_dst, ref_dst) << tier << " trial " << trial << " n=" << n;
  };
  check(LaneFlags::compute, "compute");
#ifdef __SSE2__
  check(detail::lane_flags_sse2, "sse2");
#endif
}

TEST(LaneFlagsDifferential, RandomizedLanes) {
  util::Rng rng{23};
  // Interesting ports dominate so the lane masks actually fire.
  const std::uint16_t pool[] = {80, 443, 1935, 8080, 8081, 0, 53, 65535};
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = rng.next_below(600);
    std::vector<std::uint16_t> src_port(n), dst_port(n);
    std::vector<std::uint8_t> tcp(n), indication(n);
    for (std::size_t i = 0; i < n; ++i) {
      src_port[i] = rng.next_below(2) ? pool[rng.next_below(std::size(pool))]
                                      : static_cast<std::uint16_t>(rng());
      dst_port[i] = rng.next_below(2) ? pool[rng.next_below(std::size(pool))]
                                      : static_cast<std::uint16_t>(rng());
      tcp[i] = static_cast<std::uint8_t>(rng.next_below(2));
      indication[i] = static_cast<std::uint8_t>(rng.next_below(4));
    }
    expect_lane_tiers_agree(src_port.data(), dst_port.data(), tcp.data(),
                            indication.data(), n, trial);
  }
}

TEST(LaneFlagsDifferential, TailLengthsBelowOneVector) {
  // Every length 0..95 crosses the 16-lane step boundary several times,
  // each followed by every scalar tail length.
  util::Rng rng{24};
  for (std::size_t n = 0; n < 96; ++n) {
    std::vector<std::uint16_t> src_port(n), dst_port(n);
    std::vector<std::uint8_t> tcp(n), indication(n);
    for (std::size_t i = 0; i < n; ++i) {
      src_port[i] = static_cast<std::uint16_t>(rng());
      dst_port[i] = static_cast<std::uint16_t>(rng());
      tcp[i] = static_cast<std::uint8_t>(rng.next_below(2));
      indication[i] = static_cast<std::uint8_t>(rng.next_below(4));
    }
    expect_lane_tiers_agree(src_port.data(), dst_port.data(), tcp.data(),
                            indication.data(), n, -1);
  }
}

}  // namespace
}  // namespace ixp::classify
