// Longitudinal churn analysis (§4, Figures 4 and 5).
//
// Tracks entities (server IPs, ASes) across the 17 observation weeks and
// classifies each week's active set the way Figure 4 does:
//   stable    — seen in *every* week up to and including this one
//               (the white bar segment),
//   recurrent — seen in at least one earlier week but not all (grey),
//   fresh     — seen for the first time this week (black).
// The same classification splits each week's traffic (Figure 5), overall
// and per region (DE/US/RU/CN/RoW).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/country.hpp"

namespace ixp::analysis {

enum class ChurnClass : std::uint8_t { kStable, kRecurrent, kFresh };

class ChurnTracker {
 public:
  /// The longest range a tracker covers: each key keeps one bit per week
  /// in a 32-bit mask. Callers reject a longer range before any work.
  static constexpr int kMaxWeeks = 32;

  /// Throws std::invalid_argument unless 1 <= weeks in range <= kMaxWeeks.
  ChurnTracker(int first_week, int last_week);

  /// Records that `key` (an IP, an ASN, ...) was active in `week` with
  /// the given traffic and region. Weeks may be observed in any order but
  /// each (key, week) should be reported once.
  void observe(std::uint64_t key, int week, geo::Region region, double bytes);

  struct WeekBreakdown {
    int week = 0;
    std::size_t active = 0;
    std::size_t stable = 0;
    std::size_t recurrent = 0;
    std::size_t fresh = 0;
    double active_bytes = 0.0;
    double stable_bytes = 0.0;
    double recurrent_bytes = 0.0;
    double fresh_bytes = 0.0;
    /// Per-region splits, indexed by geo::Region.
    std::array<std::size_t, 5> stable_by_region{};
    std::array<std::size_t, 5> recurrent_by_region{};
    std::array<std::size_t, 5> fresh_by_region{};
    std::array<double, 5> active_bytes_by_region{};
    std::array<double, 5> stable_bytes_by_region{};
    std::array<double, 5> recurrent_bytes_by_region{};

    friend bool operator==(const WeekBreakdown&,
                           const WeekBreakdown&) = default;
  };

  /// One breakdown per observed week, in week order. O(keys x weeks).
  [[nodiscard]] std::vector<WeekBreakdown> breakdown() const;

  /// Number of distinct keys ever observed.
  [[nodiscard]] std::size_t universe() const noexcept { return entries_.size(); }

  [[nodiscard]] int first_week() const noexcept { return first_week_; }
  [[nodiscard]] int last_week() const noexcept { return last_week_; }

 private:
  struct Entry {
    std::uint32_t active_mask = 0;  // bit w-first_week
    geo::Region region = geo::Region::kRoW;
    std::vector<float> bytes;       // per week, lazily sized
  };

  int first_week_;
  int last_week_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace ixp::analysis
