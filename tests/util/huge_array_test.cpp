// HugeArray backing policy and the forced 4 KiB fallback (DESIGN.md §14):
// every downgrade step must come back usable and report what it got.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "util/huge_array.hpp"

namespace ixp::util {
namespace {

TEST(HugeArray, EmptyArrayIsUnmapped) {
  HugeArray<std::uint32_t> arr;
  EXPECT_TRUE(arr.empty());
  EXPECT_EQ(arr.size(), 0u);
  EXPECT_EQ(arr.backing(), PageBacking::kUnmapped);
}

TEST(HugeArray, FillsAndIndexes) {
  HugeArray<std::uint32_t> arr(4096, 0xdeadbeefu);
  ASSERT_EQ(arr.size(), 4096u);
  EXPECT_NE(arr.backing(), PageBacking::kUnmapped);
  for (std::size_t i = 0; i < arr.size(); i += 257)
    EXPECT_EQ(arr[i], 0xdeadbeefu) << i;
  arr[17] = 42;
  EXPECT_EQ(arr[17], 42u);
}

TEST(HugeArray, ForcedSmallPagesTakesThePlainMapping) {
  // The differential hook: machines where huge pages succeed must still
  // exercise the exact code path a huge-page-less host runs.
  force_small_pages(true);
  EXPECT_TRUE(small_pages_forced());
  {
    HugeArray<std::uint64_t> arr(1 << 16, 7u);
    // POSIX builds land on the plain anonymous mapping; the operator-new
    // tier only exists where mmap does not.
    EXPECT_TRUE(arr.backing() == PageBacking::kSmall ||
                arr.backing() == PageBacking::kHeap)
        << to_string(arr.backing());
    for (std::size_t i = 0; i < arr.size(); i += 1021)
      EXPECT_EQ(arr[i], 7u) << i;
    arr[arr.size() - 1] = 99;
    EXPECT_EQ(arr[arr.size() - 1], 99u);
  }
  force_small_pages(false);
  EXPECT_FALSE(small_pages_forced());
}

#if defined(__linux__)
TEST(HugeArray, ZeroFillWritesNoPage) {
  // An all-zero fill is left to the kernel's zeroed pages: none of them
  // is resident until written (net::FlatLpm's "no match" entry is zero).
  force_small_pages(true);
  {
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    HugeArray<std::uint32_t> arr(std::size_t{1} << 20, 0u);
    ASSERT_EQ(arr.backing(), PageBacking::kSmall) << to_string(arr.backing());
    const std::size_t pages = arr.size() * sizeof(std::uint32_t) / page;
    std::vector<unsigned char> resident(pages);
    const auto count_resident = [&] {
      EXPECT_EQ(::mincore(arr.data(), pages * page, resident.data()), 0);
      return std::count_if(resident.begin(), resident.end(),
                           [](unsigned char r) { return (r & 1) != 0; });
    };
    EXPECT_EQ(count_resident(), 0);
    arr[page / sizeof(std::uint32_t) * 3] = 1;
    EXPECT_EQ(count_resident(), 1);
    for (std::size_t i = 0; i < arr.size(); i += 1021)
      EXPECT_EQ(arr[i], i == page / sizeof(std::uint32_t) * 3 ? 1u : 0u) << i;
  }
  force_small_pages(false);
}
#endif

TEST(HugeArray, MoveTransfersBackingAndContents) {
  HugeArray<std::uint32_t> a(1024, 5u);
  const PageBacking backing = a.backing();
  HugeArray<std::uint32_t> b = std::move(a);
  EXPECT_EQ(b.backing(), backing);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_EQ(b[512], 5u);
  EXPECT_EQ(a.backing(), PageBacking::kUnmapped);  // NOLINT: post-move probe
  EXPECT_TRUE(a.empty());
}

TEST(HugeArray, BackingNamesAreStable) {
  // bench JSON and logs print these; keep them spelled as documented.
  EXPECT_EQ(to_string(PageBacking::kUnmapped), "unmapped");
  EXPECT_EQ(to_string(PageBacking::kHugeExplicit), "huge-explicit");
  EXPECT_EQ(to_string(PageBacking::kHugeTransparent), "huge-transparent");
  EXPECT_EQ(to_string(PageBacking::kSmall), "small-pages");
  EXPECT_EQ(to_string(PageBacking::kHeap), "heap");
}

}  // namespace
}  // namespace ixp::util
