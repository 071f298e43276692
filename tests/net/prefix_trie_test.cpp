#include "support/prefix_trie.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/rng.hpp"

namespace ixp::net {
namespace {

TEST(PrefixTrie, EmptyLookupMisses) {
  PrefixTrie<int> trie;
  EXPECT_FALSE(trie.lookup(Ipv4Addr{1, 2, 3, 4}).has_value());
  EXPECT_EQ(trie.size(), 0u);
}

TEST(PrefixTrie, ExactAndCoveringLookups) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  trie.insert(Ipv4Prefix{Ipv4Addr{10, 1, 0, 0}, 16}, 2);

  EXPECT_EQ(trie.lookup(Ipv4Addr(10, 1, 2, 3)), 2);   // most specific wins
  EXPECT_EQ(trie.lookup(Ipv4Addr(10, 2, 0, 1)), 1);   // falls back to /8
  EXPECT_FALSE(trie.lookup(Ipv4Addr(11, 0, 0, 1)).has_value());
  EXPECT_EQ(trie.size(), 2u);
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix{Ipv4Addr{0u}, 0}, 99);
  EXPECT_EQ(trie.lookup(Ipv4Addr(8, 8, 8, 8)), 99);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0u}), 99);
}

TEST(PrefixTrie, OverwriteKeepsSize) {
  PrefixTrie<int> trie;
  const Ipv4Prefix p{Ipv4Addr{10, 0, 0, 0}, 8};
  trie.insert(p, 1);
  trie.insert(p, 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(Ipv4Addr(10, 0, 0, 1)), 2);
}

TEST(PrefixTrie, FindExact) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  const int* hit = trie.find_exact(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  // A longer prefix along the same path is not stored.
  EXPECT_EQ(trie.find_exact(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 16}), nullptr);
  EXPECT_EQ(trie.find_exact(Ipv4Prefix{Ipv4Addr{11, 0, 0, 0}, 8}), nullptr);
}

TEST(PrefixTrie, LookupPrefixReturnsMostSpecific) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  trie.insert(Ipv4Prefix{Ipv4Addr{10, 1, 0, 0}, 16}, 2);
  const auto hit = trie.lookup_prefix(Ipv4Addr{10, 1, 200, 3});
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first, (Ipv4Prefix{Ipv4Addr{10, 1, 0, 0}, 16}));
  EXPECT_EQ(hit->second, 2);
}

TEST(PrefixTrie, SlashThirtyTwoEntries) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix{Ipv4Addr{1, 2, 3, 4}, 32}, 7);
  EXPECT_EQ(trie.lookup(Ipv4Addr(1, 2, 3, 4)), 7);
  EXPECT_FALSE(trie.lookup(Ipv4Addr(1, 2, 3, 5)).has_value());
}

TEST(PrefixTrie, ForEachVisitsAllStoredPrefixes) {
  PrefixTrie<int> trie;
  const std::vector<Ipv4Prefix> prefixes{
      Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8},
      Ipv4Prefix{Ipv4Addr{10, 128, 0, 0}, 9},
      Ipv4Prefix{Ipv4Addr{192, 168, 0, 0}, 16},
      Ipv4Prefix{Ipv4Addr{1, 2, 3, 4}, 32},
      Ipv4Prefix{Ipv4Addr{0u}, 0},
  };
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    trie.insert(prefixes[i], static_cast<int>(i));

  std::map<std::string, int> seen;
  trie.for_each([&seen](Ipv4Prefix p, int v) { seen[p.to_string()] = v; });
  EXPECT_EQ(seen.size(), prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    EXPECT_EQ(seen.at(prefixes[i].to_string()), static_cast<int>(i));
}

// Property test: the trie agrees with the length-indexed reference on
// random prefix tables and random probes.
class TrieVsReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieVsReferenceTest, AgreesWithLengthIndexedOracle) {
  util::Rng rng{GetParam()};
  PrefixTrie<std::uint32_t> trie;
  LengthIndexedLpm<std::uint32_t> oracle;

  for (int i = 0; i < 3000; ++i) {
    const auto length = static_cast<std::uint8_t>(rng.next_in(4, 30));
    const Ipv4Addr base{static_cast<std::uint32_t>(rng())};
    const Ipv4Prefix prefix{base, length};
    const auto value = static_cast<std::uint32_t>(i);
    trie.insert(prefix, value);
    oracle.insert(prefix, value);
  }
  EXPECT_EQ(trie.size(), oracle.size());

  for (int i = 0; i < 20000; ++i) {
    const Ipv4Addr probe{static_cast<std::uint32_t>(rng())};
    EXPECT_EQ(trie.lookup(probe), oracle.lookup(probe))
        << "probe " << probe.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieVsReferenceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(LengthIndexedLpm, BasicBehaviour) {
  LengthIndexedLpm<int> lpm;
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 1, 0, 0}, 16}, 2);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 1, 0, 5)), 2);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 9, 0, 5)), 1);
  EXPECT_FALSE(lpm.lookup(Ipv4Addr(9, 9, 0, 5)).has_value());
}

}  // namespace
}  // namespace ixp::net
