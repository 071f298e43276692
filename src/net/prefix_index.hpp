// PrefixIndex — the payload-free half of a DIR-24-8 longest-prefix-match
// table (net::FlatLpm<T> is the other half: one payload column).
//
// The index maps an address to the dense index of the most specific
// stored prefix that covers it. Everything in it depends on the stored
// prefixes alone: the top array, the spill blocks, the prefix pool, the
// exact-match index and the result cache. Two tables that hold the same
// prefixes in the same insert order can therefore share one index, each
// with its own payload column indexed by it (DESIGN.md §11.1): the
// synthetic Internet's routing and geo tables do.
//
// The pooled binary trie answers a lookup by walking up to 32 dependent
// child pointers; on a RouteViews-sized table that is a dozen-plus
// dependent cache misses per address. The index trades memory for
// memory-level parallelism: a direct-indexed 2^24 top array answers
// every prefix of length <= 24 with ONE array load, and a /24 slot that
// contains any more-specific prefix points at a 256-entry spill block
// resolved by the low address byte — so a lookup is one or two array
// loads, never a pointer chase. This is the layout of DIR-24-8 (Gupta,
// Lin, McKeown, INFOCOM '98), which real routers used for exactly the
// workload the paper's pipeline has: build rarely, look up per sample.
//
// Memory layout (DESIGN.md §14): the 64 MiB top array is backed by
// util::HugeArray — explicit or transparent huge pages when the host
// grants them, 4 KiB pages otherwise. On hosts where huge pages never
// materialize (most VMs), random top-array loads miss the TLB almost
// every time, so a small direct-mapped RESULT CACHE sits in front of the
// table: 2^15 slots x 8 bytes = 256 KiB, resident in L2 and a handful of
// TLB entries. Each slot packs (addr:32 | epoch:8 | index:24) into one
// relaxed std::atomic<uint64_t>, making concurrent lookups race-free: a
// reader either sees a whole valid word or misses. Inserts invalidate by
// bumping the epoch byte (full clear on wrap), so stale hits are
// impossible; the cache disables itself in the (absurd) case of 2^24-1
// prefixes, where an index no longer fits its 24 bits. Sampled traffic
// concentrates on popular prefixes, so attribution batches hit the cache
// for a fraction of the cost of a page-walking table load. The cache
// holds indices, not payloads, so tables sharing the index share it.
//
// Inserts are incremental (no rebuild): an insert of /L overwrites a
// covered entry only when the entry's current match is no longer than L,
// which the index decides by consulting the matched prefix's stored
// length — the classic DIR-24-8 update rule. Re-inserting an existing
// prefix returns its index and touches no table entries.
//
// Entry encoding: a table entry holds index i as i + 1, so "no match" is
// the zero entry. The top array is never filled: its mapping comes
// zeroed, and the 4 KiB pages (or 2 MiB regions) no prefix covers are
// never written and never become resident.
//
// Thread model: concurrent lookups are safe (the result cache is
// atomic), inserts require exclusive access.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "util/flat_hash_map.hpp"
#include "util/huge_array.hpp"

namespace ixp::net {

class PrefixIndex {
 public:
  /// Entry encoding: kNoMatch (zero) = no covering prefix; otherwise the
  /// prefix's index + 1.
  static constexpr std::uint32_t kNoMatch = 0;

  /// What insert() did: the prefix's index, and whether it is new.
  struct Inserted {
    std::uint32_t index = 0;
    bool fresh = false;
  };

  /// Allocates the top array and the result cache, and pre-sizes the
  /// prefix pool and the exact-match index for `expected` distinct
  /// prefixes. The spill pool still grows on demand: how many /25–/32
  /// prefixes an index holds does not follow from its size (a RouteViews
  /// mix has ~5%, the synthetic Internet none), and a guessed reservation
  /// that is never touched still becomes a heap hole, which later
  /// allocations do touch, once the index is freed.
  void reserve(std::size_t expected);

  /// Stores `prefix` and returns its index, or the index it already has.
  /// The first insert allocates the 64 MiB top array; an empty index
  /// costs nothing.
  Inserted insert(Ipv4Prefix prefix);

  /// Distinct stored prefixes; indices are dense in [0, size()) and
  /// follow first-insert order.
  [[nodiscard]] std::size_t size() const noexcept { return prefixes_.size(); }

  [[nodiscard]] const Ipv4Prefix& prefix(std::uint32_t index) const noexcept {
    return prefixes_[index];
  }

  /// Exact-match lookup: the stored prefix's index + 1, or kNoMatch.
  [[nodiscard]] std::uint32_t find(Ipv4Prefix prefix) const {
    const auto it = exact_.find(prefix);
    return it == exact_.end() ? kNoMatch : it->second + 1;
  }

  /// Longest-prefix match, entry form: one result-cache probe, falling
  /// back to one top-array load plus one spill load when the /24 slot
  /// holds any more-specific prefix. Read-only on the cache: a hit rides
  /// whatever lookup_batch last filled, but a miss walks the table
  /// without refilling — the scalar forms are the cold minority, and
  /// skipping the fill keeps them from dirtying cache lines (and paying
  /// the store) on workloads that never repeat an address.
  [[nodiscard]] std::uint32_t entry_of(Ipv4Addr a) const noexcept {
    if (!cache_) return slot_of(a);
    const std::uint32_t addr = a.value();
    const std::uint64_t word =
        cache_[cache_slot(addr)].load(std::memory_order_relaxed);
    if ((word >> 32) == addr &&
        static_cast<std::uint8_t>(word >> 24) == cache_epoch_) {
      const std::uint32_t index =
          static_cast<std::uint32_t>(word) & kCacheNoMatch;
      return index == kCacheNoMatch ? kNoMatch : index + 1;
    }
    return slot_of(a);
  }

  /// Batched lookup into a payload column: out[i] = &column[index] for
  /// the prefix covering addrs[i], or nullptr. Runs in chunks of two
  /// passes: a result-cache sweep that resolves hits, then a
  /// software-pipelined table walk over the misses alone (top lines and
  /// spill blocks prefetched ahead), which also refills the cache.
  /// Requires out.size() >= addrs.size() and a column of size() payloads.
  template <typename T>
  void lookup_batch(std::span<const Ipv4Addr> addrs, std::span<const T*> out,
                    const T* column) const noexcept {
    const std::size_t n = addrs.size();
    if (top_.empty()) {
      std::fill_n(out.begin(), n, nullptr);
      return;
    }
    if (!cache_) {
      walk_range(addrs, out, column);
      return;
    }
    const std::uint8_t epoch = cache_epoch_;
    std::uint16_t miss[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      std::size_t misses = 0;
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t addr = addrs[base + i].value();
        const std::uint64_t word =
            cache_[cache_slot(addr)].load(std::memory_order_relaxed);
        if ((word >> 32) == addr &&
            static_cast<std::uint8_t>(word >> 24) == epoch) {
          const std::uint32_t index =
              static_cast<std::uint32_t>(word) & kCacheNoMatch;
          out[base + i] = index == kCacheNoMatch ? nullptr : &column[index];
        } else {
          miss[misses++] = static_cast<std::uint16_t>(i);
        }
      }
      walk_misses(addrs, out, column, base, miss, misses);
    }
  }

  /// Stored indices ordered by (network, length) — the order a binary
  /// trie's in-order walk yields.
  [[nodiscard]] std::vector<std::uint32_t> sorted_order() const;

  /// Spill blocks allocated (each 256 entries = 1 KiB).
  [[nodiscard]] std::size_t spill_blocks() const noexcept {
    return spill_.size() >> 8;
  }

  /// Bytes held by the index arrays (top + spill + prefix pool + cache).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return top_.size() * sizeof(std::uint32_t) +
           spill_.size() * sizeof(std::uint32_t) +
           prefixes_.size() * sizeof(Ipv4Prefix) +
           (cache_ ? kCacheSlots * sizeof(std::uint64_t) : 0);
  }

  /// What backs the top array (huge pages or the 4 KiB fallback).
  [[nodiscard]] util::PageBacking top_backing() const noexcept {
    return top_.backing();
  }

 private:
  static constexpr std::size_t kTopSlots = 1u << 24;
  static constexpr std::size_t kSpillEntries = 256;
  /// Top-array entries with this bit set redirect to a spill block.
  static constexpr std::uint32_t kSpillBit = 0x80000000u;

  // Result cache: direct-mapped, 2^15 slots, one 64-bit word each —
  // (addr:32 | epoch:8 | index:24). Epoch 0 never becomes current, so
  // zero-initialized slots can never fake a hit.
  static constexpr std::size_t kCacheBits = 15;
  static constexpr std::size_t kCacheSlots = std::size_t{1} << kCacheBits;
  static constexpr std::uint32_t kCacheNoMatch = 0x00FFFFFFu;
  /// lookup_batch chunk: bounds the on-stack miss list and keeps the
  /// cache-probe pass and the walk pass within one L1 working set.
  static constexpr std::size_t kChunk = 1024;
  /// Walk pipeline depths: top entries are staged kStage lookups before
  /// they resolve, top lines prefetched kTopAhead lookups before that.
  static constexpr std::size_t kStage = 8;
  static constexpr std::size_t kTopAhead = 16;

  /// May a /`len` insert overwrite `entry`? Yes when the entry is empty
  /// or its current match is no more specific. (Equal length implies the
  /// same prefix over any shared range, and distinct prefixes reach here
  /// — exact re-inserts short-circuit in insert().)
  [[nodiscard]] bool covers(std::uint32_t entry,
                            std::uint8_t len) const noexcept {
    return entry == kNoMatch || prefixes_[entry - 1].length() <= len;
  }

  /// The payload a resolved (non-spill) entry points at, or nullptr.
  template <typename T>
  [[nodiscard]] static const T* payload(const T* column,
                                        std::uint32_t entry) noexcept {
    return entry == kNoMatch ? nullptr : &column[entry - 1];
  }

  /// The spill entry for `addr` under a redirecting top entry.
  [[nodiscard]] const std::uint32_t& spilled(std::uint32_t entry,
                                             std::uint32_t addr) const noexcept {
    return spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                  (addr & 0xFFu)];
  }

  /// The 64 MiB top array and the result cache, on first use. The top
  /// array's pages come zeroed (kNoMatch), so nothing is written here.
  void allocate_top();

  [[nodiscard]] static std::size_t cache_slot(std::uint32_t addr) noexcept {
    return static_cast<std::size_t>(
        (addr * 0x9e3779b97f4a7c15ULL) >> (64 - kCacheBits));
  }

  /// Writes one cache word for a resolved table entry; the cache holds
  /// the index itself (kCacheNoMatch for none).
  void cache_fill(std::uint32_t addr, std::uint32_t entry) const noexcept {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(addr) << 32) |
        (static_cast<std::uint64_t>(cache_epoch_) << 24) |
        (entry == kNoMatch ? kCacheNoMatch : entry - 1);
    cache_[cache_slot(addr)].store(packed, std::memory_order_relaxed);
  }

  /// Marks the cache touched once per filling walk instead of per word.
  void mark_touched() const noexcept {
    if (!cache_touched_.load(std::memory_order_relaxed))
      cache_touched_.store(true, std::memory_order_relaxed);
  }

  /// Insert-side invalidation: bump the epoch byte (all cached words go
  /// stale at once), hard-clearing only on wrap so the amortized cost is
  /// one 256 KiB sweep per 255 insert bursts. Skipped entirely while no
  /// lookup has touched the cache — a bulk build pays nothing.
  void invalidate_cache() noexcept;

  /// Uncached resolve: one top load, one spill load when fanned out.
  [[nodiscard]] std::uint32_t slot_of(Ipv4Addr addr) const noexcept {
    if (top_.empty()) return kNoMatch;
    const std::uint32_t entry = top_[addr.value() >> 8];
    return entry & kSpillBit ? spilled(entry, addr.value()) : entry;
  }

  /// The software-pipelined whole-range walk (cache disabled): top
  /// entries are staged kStage iterations early so a spill block's line
  /// is already in flight when its turn comes, and top lines prefetched
  /// kTopAhead ahead of the stage.
  template <typename T>
  void walk_range(std::span<const Ipv4Addr> addrs, std::span<const T*> out,
                  const T* column) const noexcept {
    const std::size_t n = addrs.size();
    std::uint32_t staged[kStage];

    const auto stage = [&](std::size_t j) noexcept {
      const std::uint32_t entry = top_[addrs[j].value() >> 8];
      staged[j % kStage] = entry;
      if (entry & kSpillBit)
        __builtin_prefetch(&spilled(entry, addrs[j].value()));
    };

    const std::size_t lead = std::min(kStage, n);
    for (std::size_t j = 0; j < lead; ++j) {
      if (j + kTopAhead < n)
        __builtin_prefetch(&top_[addrs[j + kTopAhead].value() >> 8]);
      stage(j);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kTopAhead < n)
        __builtin_prefetch(&top_[addrs[i + kTopAhead].value() >> 8]);
      std::uint32_t entry = staged[i % kStage];
      if (i + kStage < n) stage(i + kStage);  // reuses the slot just read
      if (entry & kSpillBit) entry = spilled(entry, addrs[i].value());
      out[i] = payload(column, entry);
    }
  }

  /// The same pipeline over one chunk's cache misses (indices `miss[0..k)`
  /// relative to `base`): top lines prefetched kTopAhead entries before
  /// the stage reads them, spill lines a stage before resolution. The
  /// probe pass must NOT prefetch — a near-all-miss chunk would issue a
  /// thousand prefetches at once, overflow the prefetch queue, and have
  /// them silently dropped; bounded lookahead here keeps them in flight.
  template <typename T>
  void walk_misses(std::span<const Ipv4Addr> addrs, std::span<const T*> out,
                   const T* column, std::size_t base,
                   const std::uint16_t* miss, std::size_t k) const noexcept {
    std::uint32_t staged[kStage];
    if (k > 0) mark_touched();

    const auto top_prefetch = [&](std::size_t j) noexcept {
      if (j + kTopAhead < k)
        __builtin_prefetch(&top_[addrs[base + miss[j + kTopAhead]].value() >> 8]);
    };

    const auto stage = [&](std::size_t j) noexcept {
      const std::uint32_t addr = addrs[base + miss[j]].value();
      const std::uint32_t entry = top_[addr >> 8];
      staged[j % kStage] = entry;
      if (entry & kSpillBit) __builtin_prefetch(&spilled(entry, addr));
    };

    const std::size_t lead = std::min(kStage, k);
    for (std::size_t j = 0; j < lead; ++j) {
      top_prefetch(j);
      stage(j);
    }
    for (std::size_t i = 0; i < k; ++i) {
      top_prefetch(i + kStage);
      std::uint32_t entry = staged[i % kStage];
      if (i + kStage < k) stage(i + kStage);
      const std::size_t at = base + miss[i];
      const std::uint32_t addr = addrs[at].value();
      if (entry & kSpillBit) entry = spilled(entry, addr);
      out[at] = payload(column, entry);
      cache_fill(addr, entry);
    }
  }

  util::HugeArray<std::uint32_t> top_;  // 2^24 entries, lazily allocated
  std::vector<std::uint32_t> spill_;    // 256-entry blocks for /25–/32
  std::vector<Ipv4Prefix> prefixes_;    // by index: matched prefix + length
  util::FlatHashMap<Ipv4Prefix, std::uint32_t> exact_;  // prefix -> index
  // Result cache (mutable: lookups fill it; atomic: lookups race safely).
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> cache_;
  mutable std::atomic<bool> cache_touched_{false};
  std::uint8_t cache_epoch_ = 1;
};

}  // namespace ixp::net
