// FlatLpm<T> — a DIR-24-8-style flattened longest-prefix-match table.
//
// The pooled binary trie (PrefixTrie) answers a lookup by walking up to
// 32 dependent child pointers; on a RouteViews-sized table that is a
// dozen-plus dependent cache misses per address. FlatLpm trades memory
// for memory-level parallelism: a direct-indexed 2^24 top array answers
// every prefix of length <= 24 with ONE array load, and a /24 slot that
// contains any more-specific route points at a 256-entry spill block
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
// TLB entries. Each slot packs (addr:32 | epoch:8 | entry:24) into one
// relaxed std::atomic<uint64_t>, making concurrent lookups race-free: a
// reader either sees a whole valid word or misses. Inserts invalidate by
// bumping the epoch byte (full clear on wrap), so stale hits are
// impossible; the cache disables itself in the (absurd) case of 2^24-1
// payloads, where an index no longer fits its 24 bits. Sampled traffic
// concentrates on popular prefixes, so attribution batches hit the cache
// for a fraction of the cost of a page-walking table load.
//
// Inserts are incremental (no rebuild): an insert of /L overwrites a
// covered entry only when the entry's current match is no longer than L,
// which the table decides by consulting the matched prefix's stored
// length — the classic DIR-24-8 update rule. Re-inserting an existing
// prefix overwrites its payload in place and touches no table entries.
// reserve() allocates the top array and the cache and pre-sizes the
// payload pools from a prefix-count hint, so a RouteViews-sized build
// does not grow vectors hundreds of times, and a fill run on another
// thread allocates nothing while the hint holds.
//
// Entry encoding: a table entry holds payload index i as i + 1, so "no
// match" is the zero entry. The top array is never filled: its mapping
// comes zeroed, and the 4 KiB pages (or 2 MiB regions) no prefix covers
// are never written and never become resident.
//
// Thread model: identical to PrefixTrie — concurrent lookups are safe
// (the result cache is atomic), inserts require exclusive access.
//
// PrefixTrie and LengthIndexedLpm remain in the tree as correctness
// oracles (DESIGN.md ablation #4); the randomized differential test in
// tests/net/flat_lpm_test.cpp holds all three to identical answers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/ipv4.hpp"
#include "util/flat_hash_map.hpp"
#include "util/huge_array.hpp"

namespace ixp::net {

template <typename T>
class FlatLpm {
 public:
  FlatLpm() = default;

  /// Allocates the top array and the result cache, and pre-sizes the
  /// pools for `expected` distinct prefixes: payloads, prefixes and the
  /// exact-match index. The spill pool still grows on demand: how many
  /// /25–/32 prefixes a table holds does not follow from its size (a
  /// RouteViews mix has ~5%, the synthetic Internet none), and a guessed
  /// reservation that is never touched still becomes a heap hole, which
  /// later allocations do touch, once the table is freed.
  void reserve(std::size_t expected) {
    allocate_top();
    values_.reserve(expected);
    prefixes_.reserve(expected);
    exact_.reserve(expected);
  }

  /// Inserts or overwrites the payload at `prefix`. First insert
  /// allocates the 64 MiB top array; an empty table costs nothing.
  void insert(Ipv4Prefix prefix, T value) {
    allocate_top();
    invalidate_cache();

    const auto exact = exact_.find(prefix);
    if (exact != exact_.end()) {
      // Same prefix re-announced: every table entry already points at
      // this payload slot, so overwriting the slot updates them all.
      values_[exact->second] = std::move(value);
      return;
    }
    const auto index = static_cast<std::uint32_t>(values_.size());
    const std::uint32_t encoded = index + 1;
    values_.push_back(std::move(value));
    prefixes_.push_back(prefix);
    exact_.try_emplace(prefix, index);
    // A payload index must fit the cache's 24 entry bits; past that the
    // cache turns itself off rather than alias indices.
    if (values_.size() >= kCacheNoMatch) cache_.reset();

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
            std::uint32_t& spilled = spill_[base + i];
            if (covers(spilled, len)) spilled = encoded;
          }
        } else if (covers(entry, len)) {
          entry = encoded;
        }
      }
    } else {
      const std::uint32_t slot = net >> 8;
      std::uint32_t& entry = top_[slot];
      if (!(entry & kSpillBit)) {
        // Fan the slot out, seeding every spill entry with the current
        // best <= /24 match (possibly "none").
        const auto block = static_cast<std::uint32_t>(spill_.size() >> 8);
        spill_.insert(spill_.end(), kSpillEntries, entry);
        entry = kSpillBit | block;
      }
      const std::size_t base = static_cast<std::size_t>(entry & ~kSpillBit)
                               << 8;
      const std::uint32_t first = net & 0xFFu;
      const std::uint32_t count = 1u << (32 - len);
      for (std::uint32_t i = first; i < first + count; ++i) {
        std::uint32_t& spilled = spill_[base + i];
        if (covers(spilled, len)) spilled = encoded;
      }
    }
  }

  /// Longest-prefix match, pointer form: one result-cache probe, falling
  /// back to one top-array load plus one spill load when the /24 slot
  /// holds any more-specific route. Stable until the next insert.
  [[nodiscard]] const T* lookup_ptr(Ipv4Addr addr) const noexcept {
    return payload(cached_slot_of(addr));
  }

  [[nodiscard]] std::optional<T> lookup(Ipv4Addr addr) const {
    const T* found = lookup_ptr(addr);
    return found ? std::optional<T>{*found} : std::nullopt;
  }

  /// The most specific stored prefix containing `addr`, with its payload.
  [[nodiscard]] std::optional<std::pair<Ipv4Prefix, T>> lookup_prefix(
      Ipv4Addr addr) const {
    const std::uint32_t entry = cached_slot_of(addr);
    if (entry == kNoMatch) return std::nullopt;
    return std::pair<Ipv4Prefix, T>{prefixes_[entry - 1], values_[entry - 1]};
  }

  /// Exact-match lookup of a stored prefix.
  [[nodiscard]] const T* find_exact(Ipv4Prefix prefix) const {
    const auto it = exact_.find(prefix);
    return it == exact_.end() ? nullptr : &values_[it->second];
  }

  /// Batched lookup: out[i] = lookup_ptr(addrs[i]). Runs in chunks of
  /// two passes: a result-cache sweep that resolves hits and prefetches
  /// the top-array lines of the misses, then a software-pipelined table
  /// walk over the misses alone (spill blocks prefetched a stage ahead),
  /// which also refills the cache. Requires out.size() >= addrs.size().
  void lookup_batch(std::span<const Ipv4Addr> addrs,
                    std::span<const T*> out) const noexcept {
    const std::size_t n = addrs.size();
    if (top_.empty()) {
      std::fill_n(out.begin(), n, nullptr);
      return;
    }
    if (!cache_) {
      walk_range(addrs, out);
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
          const std::uint32_t entry =
              static_cast<std::uint32_t>(word) & kCacheNoMatch;
          out[base + i] = entry == kCacheNoMatch ? nullptr : &values_[entry];
        } else {
          miss[misses++] = static_cast<std::uint16_t>(i);
        }
      }
      walk_misses(addrs, out, base, miss, misses);
    }
  }

  /// Distinct stored prefixes.
  [[nodiscard]] std::size_t size() const noexcept { return exact_.size(); }

  /// The index in [0, size()) of the stored prefix whose payload a lookup
  /// pointed at: one index per distinct prefix, stable across inserts.
  [[nodiscard]] std::size_t index_of(const T* value) const noexcept {
    return static_cast<std::size_t>(value - values_.data());
  }

  /// Spill blocks allocated (each 256 entries = 1 KiB).
  [[nodiscard]] std::size_t spill_blocks() const noexcept {
    return spill_.size() >> 8;
  }

  /// Bytes held by the table arrays (top + spill + payload pool + cache).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return top_.size() * sizeof(std::uint32_t) +
           spill_.size() * sizeof(std::uint32_t) +
           values_.size() * sizeof(T) + prefixes_.size() * sizeof(Ipv4Prefix) +
           (cache_ ? kCacheSlots * sizeof(std::uint64_t) : 0);
  }

  /// What backs the top array (huge pages or the 4 KiB fallback).
  [[nodiscard]] util::PageBacking top_backing() const noexcept {
    return top_.backing();
  }

  /// Visits every stored (prefix, payload) pair ordered by
  /// (network, length) — the same order PrefixTrie::for_each yields.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<std::uint32_t> order(values_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const Ipv4Prefix& pa = prefixes_[a];
                const Ipv4Prefix& pb = prefixes_[b];
                if (pa.network() != pb.network())
                  return pa.network() < pb.network();
                return pa.length() < pb.length();
              });
    for (const std::uint32_t i : order) fn(prefixes_[i], values_[i]);
  }

 private:
  static constexpr std::size_t kTopSlots = 1u << 24;
  static constexpr std::size_t kSpillEntries = 256;
  /// Entry encoding: kNoMatch (zero) = no covering prefix; high bit set =
  /// spill block index (top array only); otherwise payload index + 1.
  static constexpr std::uint32_t kNoMatch = 0;
  static constexpr std::uint32_t kSpillBit = 0x80000000u;

  // Result cache: direct-mapped, 2^15 slots, one 64-bit word each —
  // (addr:32 | epoch:8 | entry:24). Epoch 0 never becomes current, so
  // zero-initialized slots can never fake a hit.
  static constexpr std::size_t kCacheBits = 15;
  static constexpr std::size_t kCacheSlots = std::size_t{1} << kCacheBits;
  static constexpr std::uint32_t kCacheNoMatch = 0x00FFFFFFu;
  /// lookup_batch chunk: bounds the on-stack miss list and keeps the
  /// cache-probe pass and the walk pass within one L1 working set.
  static constexpr std::size_t kChunk = 1024;

  /// May a /`len` insert overwrite `entry`? Yes when the entry is empty
  /// or its current match is no more specific. (Equal length implies the
  /// same prefix over any shared range, and distinct prefixes reach here
  /// — exact re-inserts short-circuit in insert().)
  [[nodiscard]] bool covers(std::uint32_t entry,
                            std::uint8_t len) const noexcept {
    return entry == kNoMatch || prefixes_[entry - 1].length() <= len;
  }

  /// The payload a resolved (non-spill) entry points at, or nullptr.
  [[nodiscard]] const T* payload(std::uint32_t entry) const noexcept {
    return entry == kNoMatch ? nullptr : &values_[entry - 1];
  }

  /// The 64 MiB top array and the result cache, on first use. The top
  /// array's pages come zeroed (kNoMatch), so nothing is written here.
  void allocate_top() {
    if (!top_.empty()) return;
    top_ = util::HugeArray<std::uint32_t>(kTopSlots, kNoMatch);
    cache_.reset(new std::atomic<std::uint64_t>[kCacheSlots]());
  }

  [[nodiscard]] static std::size_t cache_slot(std::uint32_t addr) noexcept {
    return static_cast<std::size_t>(
        (addr * 0x9e3779b97f4a7c15ULL) >> (64 - kCacheBits));
  }

  /// Writes one cache word for a resolved table entry; the cache holds
  /// the payload index itself (kCacheNoMatch for none). Callers that
  /// fill in bulk mark the cache touched once via mark_touched() instead
  /// of per word.
  void cache_fill(std::uint32_t addr, std::uint32_t entry) const noexcept {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(addr) << 32) |
        (static_cast<std::uint64_t>(cache_epoch_) << 24) |
        (entry == kNoMatch ? kCacheNoMatch : entry - 1);
    cache_[cache_slot(addr)].store(packed, std::memory_order_relaxed);
  }

  void mark_touched() const noexcept {
    if (!cache_touched_.load(std::memory_order_relaxed))
      cache_touched_.store(true, std::memory_order_relaxed);
  }

  /// Insert-side invalidation: bump the epoch byte (all cached words go
  /// stale at once), hard-clearing only on wrap so the amortized cost is
  /// one 256 KiB sweep per 255 insert bursts. Skipped entirely while no
  /// lookup has touched the cache — a bulk build pays nothing.
  void invalidate_cache() noexcept {
    if (!cache_ || !cache_touched_.load(std::memory_order_relaxed)) return;
    if (++cache_epoch_ == 0) {
      for (std::size_t i = 0; i < kCacheSlots; ++i)
        cache_[i].store(0, std::memory_order_relaxed);
      cache_epoch_ = 1;
    }
    cache_touched_.store(false, std::memory_order_relaxed);
  }

  /// Uncached resolve: one top load, one spill load when fanned out.
  [[nodiscard]] std::uint32_t slot_of(Ipv4Addr addr) const noexcept {
    if (top_.empty()) return kNoMatch;
    std::uint32_t entry = top_[addr.value() >> 8];
    if (entry & kSpillBit)
      entry = spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                     (addr.value() & 0xFFu)];
    return entry;
  }

  /// Cache-probing resolve used by the scalar lookup forms. Read-only:
  /// a hit rides whatever lookup_batch last filled, but a miss walks the
  /// table without refilling — the scalar forms are the cold minority,
  /// and skipping the fill keeps them from dirtying cache lines (and
  /// paying the store) on workloads that never repeat an address.
  [[nodiscard]] std::uint32_t cached_slot_of(Ipv4Addr a) const noexcept {
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

  /// The software-pipelined whole-range walk (cache disabled): top
  /// entries are staged kStage iterations early so a spill block's line
  /// is already in flight when its turn comes, and top lines prefetched
  /// kTopAhead ahead of the stage.
  void walk_range(std::span<const Ipv4Addr> addrs,
                  std::span<const T*> out) const noexcept {
    const std::size_t n = addrs.size();
    constexpr std::size_t kStage = 8;
    constexpr std::size_t kTopAhead = 16;
    std::uint32_t staged[kStage];

    const auto stage = [&](std::size_t j) noexcept {
      const std::uint32_t entry = top_[addrs[j].value() >> 8];
      staged[j % kStage] = entry;
      if (entry & kSpillBit)
        __builtin_prefetch(
            &spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                    (addrs[j].value() & 0xFFu)]);
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
      if (entry & kSpillBit)
        entry = spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                       (addrs[i].value() & 0xFFu)];
      out[i] = payload(entry);
    }
  }

  /// The same pipeline over one chunk's cache misses (indices `miss[0..k)`
  /// relative to `base`): top lines prefetched kTopAhead entries before
  /// the stage reads them, spill lines a stage before resolution. The
  /// probe pass must NOT prefetch — a near-all-miss chunk would issue a
  /// thousand prefetches at once, overflow the prefetch queue, and have
  /// them silently dropped; bounded lookahead here keeps them in flight.
  void walk_misses(std::span<const Ipv4Addr> addrs, std::span<const T*> out,
                   std::size_t base, const std::uint16_t* miss,
                   std::size_t k) const noexcept {
    constexpr std::size_t kStage = 8;
    constexpr std::size_t kTopAhead = 16;
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
      if (entry & kSpillBit)
        __builtin_prefetch(
            &spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                    (addr & 0xFFu)]);
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
      if (entry & kSpillBit)
        entry = spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                       (addr & 0xFFu)];
      out[at] = payload(entry);
      cache_fill(addr, entry);
    }
  }

  util::HugeArray<std::uint32_t> top_;  // 2^24 entries, lazily allocated
  std::vector<std::uint32_t> spill_;    // 256-entry blocks for /25–/32
  std::vector<T> values_;               // payload pool, indexed by entries
  std::vector<Ipv4Prefix> prefixes_;    // parallel: matched prefix + length
  util::FlatHashMap<Ipv4Prefix, std::uint32_t> exact_;  // prefix -> index
  // Result cache (mutable: lookups fill it; atomic: lookups race safely).
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> cache_;
  mutable std::atomic<bool> cache_touched_{false};
  std::uint8_t cache_epoch_ = 1;
};

}  // namespace ixp::net
