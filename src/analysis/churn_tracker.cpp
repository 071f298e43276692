#include "analysis/churn_tracker.hpp"

#include <stdexcept>

namespace ixp::analysis {

ChurnTracker::ChurnTracker(int first_week, int last_week)
    : first_week_(first_week), last_week_(last_week) {
  if (last_week < first_week || last_week - first_week >= kMaxWeeks)
    throw std::invalid_argument{"ChurnTracker: bad week range"};
}

void ChurnTracker::observe(std::uint64_t key, int week, geo::Region region,
                           double bytes) {
  if (week < first_week_ || week > last_week_) return;
  Entry& entry = entries_[key];
  const int index = week - first_week_;
  entry.active_mask |= 1u << index;
  entry.region = region;
  if (entry.bytes.size() <= static_cast<std::size_t>(index))
    entry.bytes.resize(static_cast<std::size_t>(index) + 1, 0.0f);
  entry.bytes[static_cast<std::size_t>(index)] += static_cast<float>(bytes);
}

std::vector<ChurnTracker::WeekBreakdown> ChurnTracker::breakdown() const {
  const int weeks = last_week_ - first_week_ + 1;
  std::vector<WeekBreakdown> out(static_cast<std::size_t>(weeks));
  for (int w = 0; w < weeks; ++w) out[static_cast<std::size_t>(w)].week = first_week_ + w;

  for (const auto& [key, entry] : entries_) {
    const auto region = static_cast<std::size_t>(entry.region);
    for (int w = 0; w < weeks; ++w) {
      if ((entry.active_mask & (1u << w)) == 0) continue;
      WeekBreakdown& week = out[static_cast<std::size_t>(w)];
      const double bytes =
          static_cast<std::size_t>(w) < entry.bytes.size()
              ? static_cast<double>(entry.bytes[static_cast<std::size_t>(w)])
              : 0.0;
      week.active += 1;
      week.active_bytes += bytes;
      week.active_bytes_by_region[region] += bytes;

      // History up to (excluding) this week.
      const std::uint32_t earlier = entry.active_mask & ((1u << w) - 1);
      const std::uint32_t all_earlier = w == 0 ? 0 : (1u << w) - 1;
      ChurnClass cls;
      if (earlier == 0 && w > 0) {
        cls = ChurnClass::kFresh;
      } else if (earlier == all_earlier) {
        // Seen in every earlier week (vacuously true in the first week).
        cls = ChurnClass::kStable;
      } else {
        cls = ChurnClass::kRecurrent;
      }
      switch (cls) {
        case ChurnClass::kStable:
          week.stable += 1;
          week.stable_bytes += bytes;
          week.stable_by_region[region] += 1;
          week.stable_bytes_by_region[region] += bytes;
          break;
        case ChurnClass::kRecurrent:
          week.recurrent += 1;
          week.recurrent_bytes += bytes;
          week.recurrent_by_region[region] += 1;
          week.recurrent_bytes_by_region[region] += bytes;
          break;
        case ChurnClass::kFresh:
          week.fresh += 1;
          week.fresh_bytes += bytes;
          week.fresh_by_region[region] += 1;
          break;
      }
    }
  }
  return out;
}

}  // namespace ixp::analysis
