#include "net/prefix_index.hpp"

namespace ixp::net {

void PrefixIndex::reserve(std::size_t expected) {
  allocate_top();
  prefixes_.reserve(expected);
  exact_.reserve(expected);
}

void PrefixIndex::allocate_top() {
  if (!top_.empty()) return;
  top_ = util::HugeArray<std::uint32_t>(kTopSlots, kNoMatch);
  cache_.reset(new std::atomic<std::uint64_t>[kCacheSlots]());
}

void PrefixIndex::invalidate_cache() noexcept {
  if (!cache_ || !cache_touched_.load(std::memory_order_relaxed)) return;
  if (++cache_epoch_ == 0) {
    for (std::size_t i = 0; i < kCacheSlots; ++i)
      cache_[i].store(0, std::memory_order_relaxed);
    cache_epoch_ = 1;
  }
  cache_touched_.store(false, std::memory_order_relaxed);
}

PrefixIndex::Inserted PrefixIndex::insert(Ipv4Prefix prefix) {
  allocate_top();

  const auto [exact, fresh] =
      exact_.try_emplace(prefix, static_cast<std::uint32_t>(prefixes_.size()));
  // Same prefix again: every table entry already points at its index.
  if (!fresh) return {exact->second, false};

  invalidate_cache();
  const std::uint32_t index = exact->second;
  const std::uint32_t encoded = index + 1;
  prefixes_.push_back(prefix);
  // An index must fit the cache's 24 index bits; past that the cache
  // turns itself off rather than alias indices.
  if (prefixes_.size() >= kCacheNoMatch) cache_.reset();

  const std::uint32_t net = prefix.network().value();
  const std::uint8_t len = prefix.length();
  if (len <= 24) {
    const std::uint32_t first = net >> 8;
    const std::uint32_t count = 1u << (24 - len);
    for (std::uint32_t slot = first; slot < first + count; ++slot) {
      std::uint32_t& entry = top_[slot];
      if (entry & kSpillBit) {
        // The slot fans out: apply the overwrite rule per spill entry.
        const std::size_t base =
            static_cast<std::size_t>(entry & ~kSpillBit) << 8;
        for (std::size_t i = 0; i < kSpillEntries; ++i) {
          std::uint32_t& spill = spill_[base + i];
          if (covers(spill, len)) spill = encoded;
        }
      } else if (covers(entry, len)) {
        entry = encoded;
      }
    }
  } else {
    std::uint32_t& entry = top_[net >> 8];
    if (!(entry & kSpillBit)) {
      // Fan the slot out, seeding every spill entry with the current
      // best <= /24 match (possibly "none").
      const auto block = static_cast<std::uint32_t>(spill_.size() >> 8);
      spill_.insert(spill_.end(), kSpillEntries, entry);
      entry = kSpillBit | block;
    }
    const std::size_t base = static_cast<std::size_t>(entry & ~kSpillBit) << 8;
    const std::uint32_t first = net & 0xFFu;
    const std::uint32_t count = 1u << (32 - len);
    for (std::uint32_t i = first; i < first + count; ++i) {
      std::uint32_t& spill = spill_[base + i];
      if (covers(spill, len)) spill = encoded;
    }
  }
  return {index, true};
}

std::vector<std::uint32_t> PrefixIndex::sorted_order() const {
  std::vector<std::uint32_t> order(prefixes_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Ipv4Prefix& pa = prefixes_[a];
              const Ipv4Prefix& pb = prefixes_[b];
              if (pa.network() != pb.network())
                return pa.network() < pb.network();
              return pa.length() < pb.length();
            });
  return order;
}

}  // namespace ixp::net
