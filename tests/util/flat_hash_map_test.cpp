#include "util/flat_hash_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ratio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/inline_string.hpp"
#include "util/rng.hpp"

namespace ixp::util {
namespace {

TEST(FlatHashMap, StartsEmpty) {
  FlatHashMap<int, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.begin(), map.end());
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.erase(7), 0u);
}

TEST(FlatHashMap, InsertFindErase) {
  FlatHashMap<int, std::string> map;
  auto [it, inserted] = map.try_emplace(1, "one");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "one");
  auto [again, inserted2] = map.try_emplace(1, "uno");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(again->second, "one");  // try_emplace never overwrites

  map[2] = "two";
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(2), "two");
  EXPECT_EQ(map.count(1), 1u);
  EXPECT_EQ(map.erase(1), 1u);
  EXPECT_EQ(map.erase(1), 0u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_THROW((void)map.at(1), std::out_of_range);
}

TEST(FlatHashMap, OperatorBracketDefaultConstructs) {
  FlatHashMap<int, std::uint64_t> map;
  EXPECT_EQ(map[42], 0u);
  map[42] += 7;
  EXPECT_EQ(map.at(42), 7u);
}

TEST(FlatHashMap, ReserveAvoidsRehash) {
  FlatHashMap<int, int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap * 7 / 8, 1000u);
  for (int i = 0; i < 1000; ++i) map[i] = i;
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.size(), 1000u);
}

// The MaxLoad argument moves both the grow point and reserve()'s sizing:
// 16 slots hold 14 entries at the default 7/8 and 12 at 3/4.
TEST(FlatHashMap, MaxLoadSetsTheGrowPoint) {
  FlatHashMap<int, int> seven_eighths;
  FlatHashMap<int, int, std::hash<int>, std::equal_to<>, std::ratio<3, 4>>
      three_quarters;
  for (int i = 0; i < 12; ++i) {
    seven_eighths[i] = i;
    three_quarters[i] = i;
  }
  EXPECT_EQ(seven_eighths.capacity(), 16u);
  EXPECT_EQ(three_quarters.capacity(), 16u);
  three_quarters[12] = 12;
  EXPECT_EQ(three_quarters.capacity(), 32u);
  for (int i = 12; i < 14; ++i) seven_eighths[i] = i;
  EXPECT_EQ(seven_eighths.capacity(), 16u);
  for (int i = 0; i < 13; ++i) EXPECT_EQ(three_quarters.at(i), i);

  decltype(three_quarters) reserved;
  reserved.reserve(12);
  EXPECT_EQ(reserved.capacity(), 16u);
  reserved.reserve(13);
  EXPECT_EQ(reserved.capacity(), 32u);
}

TEST(FlatHashMap, ClearKeepsCapacity) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i;
  const std::size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.begin(), map.end());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(map.contains(i));
}

TEST(FlatHashMap, IterationVisitsEveryEntryOnce) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 257; ++i) map[i] = i * 3;
  std::vector<int> keys;
  for (const auto& [k, v] : map) {
    EXPECT_EQ(v, k * 3);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 257u);
  for (int i = 0; i < 257; ++i) EXPECT_EQ(keys[i], i);
}

TEST(FlatHashMap, EqualityIsOrderIndependent) {
  FlatHashMap<int, int> a;
  FlatHashMap<int, int> b;
  for (int i = 0; i < 64; ++i) a[i] = i;
  for (int i = 63; i >= 0; --i) b[i] = i;
  EXPECT_EQ(a, b);
  b[0] = 99;
  EXPECT_NE(a, b);
  b[0] = 0;
  b[64] = 64;
  EXPECT_NE(a, b);
}

TEST(FlatHashMap, HeterogeneousLookupWithStringView) {
  FlatHashMap<InlineString<32>, int, StringHash, std::equal_to<>> map;
  map.try_emplace(InlineString<32>{"www.example.com"}, 1);
  map.try_emplace(InlineString<32>{"cdn.example.net"}, 2);
  const std::string_view needle = "cdn.example.net";
  const auto it = map.find(needle);  // no InlineString constructed
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second, 2);
  EXPECT_TRUE(map.contains(std::string_view{"www.example.com"}));
  EXPECT_FALSE(map.contains(std::string_view{"gone.example.org"}));
  EXPECT_EQ(map.erase(needle), 1u);
  EXPECT_EQ(map.size(), 1u);
}

// Backward-shift erase must never break another key's probe chain. Force
// maximal collisions with a constant hash, then erase from the middle.
struct CollidingHash {
  std::size_t operator()(int) const noexcept { return 0; }
};

TEST(FlatHashMap, EraseUnderFullCollisionKeepsChainsIntact) {
  FlatHashMap<int, int, CollidingHash> map;
  for (int i = 0; i < 12; ++i) map[i] = i;
  EXPECT_EQ(map.erase(5), 1u);
  EXPECT_EQ(map.erase(0), 1u);
  EXPECT_EQ(map.erase(11), 1u);
  for (int i = 0; i < 12; ++i) {
    const bool erased = i == 5 || i == 0 || i == 11;
    EXPECT_EQ(map.contains(i), !erased) << i;
    if (!erased) {
      EXPECT_EQ(map.at(i), i);
    }
  }
}

// The load-bearing property: any interleaving of insert / erase / lookup
// agrees with std::unordered_map exactly.
TEST(FlatHashMap, RandomizedMirrorAgainstStdUnorderedMap) {
  Rng rng{0x1234abcd};
  FlatHashMap<std::uint32_t, std::uint64_t> flat;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;

  for (int op = 0; op < 200000; ++op) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng() % 512);
    switch (rng() % 4) {
      case 0:
      case 1: {  // upsert
        const std::uint64_t value = rng();
        flat[key] += value;
        ref[key] += value;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      }
      case 3: {  // lookup
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit != flat.end(), rit != ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }

  // Full-content comparison both ways.
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(flat.contains(k));
    ASSERT_EQ(flat.at(k), v);
  }
  std::size_t visited = 0;
  for (const auto& [k, v] : flat) {
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(it->second, v);
    ++visited;
  }
  EXPECT_EQ(visited, ref.size());
}

// Erase-heavy churn at a constant population: backward-shift deletion
// must not degrade lookups (no tombstones piling up) and stays correct.
TEST(FlatHashMap, SteadyStateChurnStaysConsistent) {
  Rng rng{0xfeed5eed};
  FlatHashMap<std::uint32_t, std::uint32_t> flat;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    flat[i] = i;
    ref[i] = i;
  }
  std::vector<std::uint32_t> live(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) live[i] = i;

  const std::size_t cap_after_fill = flat.capacity();
  for (int round = 0; round < 50000; ++round) {
    // Replace one live key with a fresh one: the population is constant,
    // so churn alone must never force growth.
    const std::size_t idx = static_cast<std::size_t>(rng() % live.size());
    flat.erase(live[idx]);
    ref.erase(live[idx]);
    auto born = static_cast<std::uint32_t>(rng());
    while (ref.contains(born)) born = static_cast<std::uint32_t>(rng());
    flat[born] = born;
    ref[born] = born;
    live[idx] = born;
  }
  EXPECT_EQ(flat.capacity(), cap_after_fill);
  ASSERT_EQ(flat.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(flat.contains(k)) << k;
    ASSERT_EQ(flat.at(k), v);
  }
}

}  // namespace
}  // namespace ixp::util
