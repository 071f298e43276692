// Differential tests: FlatLpm held to the answers of the two oracle
// structures (PrefixTrie and LengthIndexedLpm) over randomized corpora
// — overlapping prefixes, the full /0–/32 length range, default routes,
// overwriting inserts, and address sweeps across prefix boundaries.
#include "net/flat_lpm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/prefix_trie.hpp"
#include "util/rng.hpp"

namespace ixp::net {
namespace {

TEST(FlatLpm, EmptyLookupMisses) {
  FlatLpm<int> lpm;
  EXPECT_FALSE(lpm.lookup(Ipv4Addr{1, 2, 3, 4}).has_value());
  EXPECT_EQ(lpm.lookup_ptr(Ipv4Addr{1, 2, 3, 4}), nullptr);
  EXPECT_EQ(lpm.size(), 0u);
  EXPECT_EQ(lpm.footprint_bytes(), 0u);  // top array is lazy
}

TEST(FlatLpm, ExactAndCoveringLookups) {
  FlatLpm<int> lpm;
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 1, 0, 0}, 16}, 2);

  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 1, 2, 3)), 2);  // most specific wins
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 2, 0, 1)), 1);  // falls back to /8
  EXPECT_FALSE(lpm.lookup(Ipv4Addr(11, 0, 0, 1)).has_value());
  EXPECT_EQ(lpm.size(), 2u);
  EXPECT_EQ(lpm.spill_blocks(), 0u);  // nothing longer than /24
}

TEST(FlatLpm, DefaultRouteMatchesEverything) {
  FlatLpm<int> lpm;
  lpm.insert(Ipv4Prefix{Ipv4Addr{0u}, 0}, 99);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(8, 8, 8, 8)), 99);
  EXPECT_EQ(lpm.lookup(Ipv4Addr{0u}), 99);
  EXPECT_EQ(lpm.lookup(Ipv4Addr{0xFFFFFFFFu}), 99);
}

TEST(FlatLpm, OverwriteKeepsSizeAndRetargetsEveryEntry) {
  FlatLpm<int> lpm;
  const Ipv4Prefix p{Ipv4Addr{10, 0, 0, 0}, 8};
  lpm.insert(p, 1);
  lpm.insert(p, 2);
  EXPECT_EQ(lpm.size(), 1u);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 0, 0, 1)), 2);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 255, 255, 255)), 2);

  // Overwriting a spilled prefix updates the spill entries too.
  const Ipv4Prefix host{Ipv4Addr{10, 0, 0, 7}, 32};
  lpm.insert(host, 3);
  lpm.insert(host, 4);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 0, 0, 7)), 4);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 0, 0, 8)), 2);
  EXPECT_EQ(lpm.spill_blocks(), 1u);
}

TEST(FlatLpm, FindExact) {
  FlatLpm<int> lpm;
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  const int* hit = lpm.find_exact(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(lpm.find_exact(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 16}), nullptr);
  EXPECT_EQ(lpm.find_exact(Ipv4Prefix{Ipv4Addr{11, 0, 0, 0}, 8}), nullptr);
}

TEST(FlatLpm, SpillBlockInheritsShorterCover) {
  FlatLpm<int> lpm;
  // Insert order exercises both directions: a long prefix forcing a
  // spill of a slot already covered by /16, then a /24 that must descend
  // into the existing spill block without clobbering the /26.
  lpm.insert(Ipv4Prefix{Ipv4Addr{172, 16, 0, 0}, 16}, 1);
  lpm.insert(Ipv4Prefix{Ipv4Addr{172, 16, 5, 64}, 26}, 2);
  lpm.insert(Ipv4Prefix{Ipv4Addr{172, 16, 5, 0}, 24}, 3);

  EXPECT_EQ(lpm.lookup(Ipv4Addr(172, 16, 5, 70)), 2);   // in the /26
  EXPECT_EQ(lpm.lookup(Ipv4Addr(172, 16, 5, 1)), 3);    // /24, outside /26
  EXPECT_EQ(lpm.lookup(Ipv4Addr(172, 16, 6, 1)), 1);    // /16 elsewhere
  EXPECT_EQ(lpm.spill_blocks(), 1u);
}

TEST(FlatLpm, ForEachMatchesTrieOrder) {
  FlatLpm<int> lpm;
  PrefixTrie<int> trie;
  util::Rng rng{11};
  for (int i = 0; i < 200; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(0, 32));
    const Ipv4Prefix p{Ipv4Addr{static_cast<std::uint32_t>(rng())}, len};
    lpm.insert(p, i);
    trie.insert(p, i);
  }
  std::vector<std::pair<Ipv4Prefix, int>> from_lpm;
  std::vector<std::pair<Ipv4Prefix, int>> from_trie;
  lpm.for_each([&](Ipv4Prefix p, int v) { from_lpm.emplace_back(p, v); });
  trie.for_each([&](Ipv4Prefix p, int v) { from_trie.emplace_back(p, v); });
  EXPECT_EQ(from_lpm, from_trie);
}

// ---- randomized differential harness ------------------------------------

struct Corpus {
  std::vector<Ipv4Prefix> prefixes;
  std::vector<Ipv4Addr> probes;
};

/// Builds a corpus with deliberate overlap (several prefixes share
/// networks at different lengths) and probes biased to land near the
/// inserted networks, where boundaries live.
Corpus make_corpus(std::uint64_t seed, std::size_t n_prefixes,
                   std::size_t n_probes, std::uint64_t min_len,
                   std::uint64_t max_len) {
  util::Rng rng{seed};
  Corpus c;
  c.prefixes.reserve(n_prefixes);
  for (std::size_t i = 0; i < n_prefixes; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(min_len, max_len));
    auto addr = static_cast<std::uint32_t>(rng());
    // Every fourth prefix reuses an earlier network to force overlap.
    if (i % 4 == 3 && !c.prefixes.empty())
      addr = c.prefixes[rng() % c.prefixes.size()].network().value();
    c.prefixes.emplace_back(Ipv4Addr{addr}, len);
  }
  c.probes.reserve(n_probes);
  for (std::size_t i = 0; i < n_probes; ++i) {
    if (i % 2 == 0) {
      c.probes.emplace_back(static_cast<std::uint32_t>(rng()));
    } else {
      // Jitter around a known network: hits the edges of covered ranges.
      const std::uint32_t base =
          c.prefixes[rng() % c.prefixes.size()].network().value();
      const auto jitter = static_cast<std::int32_t>(rng.next_in(0, 512)) - 256;
      c.probes.emplace_back(base + static_cast<std::uint32_t>(jitter));
    }
  }
  return c;
}

void run_differential(const Corpus& corpus) {
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  LengthIndexedLpm<std::uint32_t> indexed;
  for (std::size_t i = 0; i < corpus.prefixes.size(); ++i) {
    const auto v = static_cast<std::uint32_t>(i);
    flat.insert(corpus.prefixes[i], v);
    trie.insert(corpus.prefixes[i], v);
    indexed.insert(corpus.prefixes[i], v);
  }
  ASSERT_EQ(flat.size(), trie.size());
  ASSERT_EQ(flat.size(), indexed.size());

  for (const Ipv4Addr addr : corpus.probes) {
    const auto expect = trie.lookup(addr);
    ASSERT_EQ(flat.lookup(addr), expect) << "addr " << addr.value();
    ASSERT_EQ(indexed.lookup(addr), expect) << "addr " << addr.value();

    const auto flat_prefix = flat.lookup_prefix(addr);
    const auto trie_prefix = trie.lookup_prefix(addr);
    ASSERT_EQ(flat_prefix, trie_prefix) << "addr " << addr.value();
  }

  // Batched answers must equal the scalar ones, element for element.
  std::vector<const std::uint32_t*> out(corpus.probes.size());
  flat.lookup_batch(corpus.probes, out);
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    const std::uint32_t* scalar = flat.lookup_ptr(corpus.probes[i]);
    ASSERT_EQ(out[i], scalar) << "probe " << i;
  }
}

TEST(FlatLpmDifferential, FullLengthRange) {
  for (const std::uint64_t seed : {1u, 2u, 3u})
    run_differential(make_corpus(seed, 1500, 4000, 0, 32));
}

TEST(FlatLpmDifferential, RoutingShapedTable) {
  // /8–/24 only: no spill blocks, pure top-array coverage.
  for (const std::uint64_t seed : {4u, 5u})
    run_differential(make_corpus(seed, 2000, 4000, 8, 24));
}

TEST(FlatLpmDifferential, SpillHeavyTable) {
  // /25–/32 only: every prefix lands in a spill block.
  for (const std::uint64_t seed : {6u, 7u})
    run_differential(make_corpus(seed, 1000, 4000, 25, 32));
}

TEST(FlatLpmDifferential, OverwritingInserts) {
  util::Rng rng{8};
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  std::vector<Ipv4Prefix> pool;
  for (int i = 0; i < 600; ++i) {
    Ipv4Prefix p{Ipv4Addr{static_cast<std::uint32_t>(rng())},
                 static_cast<std::uint8_t>(rng.next_in(0, 32))};
    // Half the inserts re-announce an existing prefix with a new payload.
    if (i % 2 == 1 && !pool.empty()) p = pool[rng() % pool.size()];
    pool.push_back(p);
    const auto v = static_cast<std::uint32_t>(i);
    flat.insert(p, v);
    trie.insert(p, v);
  }
  EXPECT_EQ(flat.size(), trie.size());
  for (int i = 0; i < 4000; ++i) {
    const Ipv4Addr addr{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(flat.lookup(addr), trie.lookup(addr)) << "addr " << addr.value();
  }
}

TEST(FlatLpmDifferential, AddressSweepAcrossBoundaries) {
  // A dense sweep across a region packed with nested prefixes: every
  // address in the range is probed, so every boundary is crossed.
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  util::Rng rng{9};
  const std::uint32_t base = Ipv4Addr{192, 168, 0, 0}.value();
  for (int i = 0; i < 300; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(16, 32));
    const std::uint32_t addr = base + static_cast<std::uint32_t>(
                                          rng.next_in(0, (1u << 16) - 1));
    const Ipv4Prefix p{Ipv4Addr{addr}, len};
    const auto v = static_cast<std::uint32_t>(i);
    flat.insert(p, v);
    trie.insert(p, v);
  }
  for (std::uint32_t offset = 0; offset < (1u << 16); ++offset) {
    const Ipv4Addr addr{base + offset};
    ASSERT_EQ(flat.lookup(addr), trie.lookup(addr)) << "addr " << addr.value();
  }
}

}  // namespace
}  // namespace ixp::net
