// The FlatLpm result cache and its invalidation contract (DESIGN.md §14):
// interleaved inserts and batch lookups must never serve a stale cached
// answer — across a single epoch bump, across the full 8-bit epoch wrap
// (256 invalidations between probes of the same address), and with the
// top array forced onto 4 KiB pages.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/flat_lpm.hpp"
#include "support/prefix_trie.hpp"
#include "util/huge_array.hpp"
#include "util/rng.hpp"

namespace ixp::net {
namespace {

void check_against_trie(const FlatLpm<std::uint32_t>& flat,
                        const PrefixTrie<std::uint32_t>& trie,
                        std::span<const Ipv4Addr> probes) {
  std::vector<const std::uint32_t*> out(probes.size());
  flat.lookup_batch(probes, out);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto expect = trie.lookup(probes[i]);
    // Batch, pointer-scalar, and value-scalar forms all agree with the
    // oracle — a batch answer is the same payload slot the scalar path
    // resolves.
    ASSERT_EQ(out[i] != nullptr, expect.has_value()) << probes[i].value();
    if (expect) {
      ASSERT_EQ(*out[i], *expect) << probes[i].value();
      ASSERT_EQ(out[i], flat.lookup_ptr(probes[i])) << probes[i].value();
    }
    ASSERT_EQ(flat.lookup(probes[i]), expect) << probes[i].value();
  }
}

TEST(FlatLpmCache, InterleavedInsertsNeverServeStaleHits) {
  util::Rng rng{31};
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;

  // A fixed probe set queried after every insert round: each round's
  // lookups populate the cache, the next round's insert invalidates it,
  // and any stale hit diverges from the trie immediately.
  std::vector<Ipv4Addr> probes;
  for (int i = 0; i < 2048; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng()));

  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i) {
      // Half the inserts nest under an already-probed address so the
      // newly covered range was cached with the OLD answer.
      std::uint32_t addr = probes[rng() % probes.size()].value();
      if (rng.next_below(2)) addr = static_cast<std::uint32_t>(rng());
      const auto len = static_cast<std::uint8_t>(rng.next_in(8, 32));
      const Ipv4Prefix p{Ipv4Addr{addr}, len};
      const auto v = static_cast<std::uint32_t>(round * 1000 + i);
      flat.insert(p, v);
      trie.insert(p, v);
    }
    check_against_trie(flat, trie, probes);
  }
}

TEST(FlatLpmCache, EpochWrapStillInvalidates) {
  // 300 single-insert rounds push the 8-bit epoch through its wrap (the
  // wrap path does a full cache clear); the same addresses are probed
  // every round, so a missed invalidation anywhere in 0..255 surfaces.
  util::Rng rng{32};
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  std::vector<Ipv4Addr> probes;
  for (int i = 0; i < 256; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng()));

  for (int round = 0; round < 300; ++round) {
    // Nest ever-longer prefixes over a probed address: each insert
    // changes that address's correct answer.
    const std::uint32_t target = probes[round % probes.size()].value();
    const auto len = static_cast<std::uint8_t>(8 + round % 25);
    flat.insert(Ipv4Prefix{Ipv4Addr{target}, len},
                static_cast<std::uint32_t>(round));
    trie.insert(Ipv4Prefix{Ipv4Addr{target}, len},
                static_cast<std::uint32_t>(round));
    check_against_trie(flat, trie, probes);
  }
}

TEST(FlatLpmCache, SmallPageFallbackAnswersIdentically) {
  // force_small_pages pins the HugeArray 4 KiB path; the table must
  // report that backing and answer exactly as the huge-page build.
  util::force_small_pages(true);
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  util::Rng rng{33};
  for (int i = 0; i < 800; ++i) {
    const Ipv4Prefix p{Ipv4Addr{static_cast<std::uint32_t>(rng())},
                       static_cast<std::uint8_t>(rng.next_in(4, 32))};
    flat.insert(p, static_cast<std::uint32_t>(i));
    trie.insert(p, static_cast<std::uint32_t>(i));
  }
  EXPECT_TRUE(flat.top_backing() == util::PageBacking::kSmall ||
              flat.top_backing() == util::PageBacking::kHeap)
      << to_string(flat.top_backing());
  std::vector<Ipv4Addr> probes;
  for (int i = 0; i < 6000; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng()));
  check_against_trie(flat, trie, probes);
  util::force_small_pages(false);
}

}  // namespace
}  // namespace ixp::net
