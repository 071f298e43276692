// HugeArray<T> — a fixed-size array backed by huge pages when the
// platform grants them, with graceful 4 KiB fallback.
//
// The motivating tenant is net::FlatLpm's 64 MiB top array: randomly
// indexed by the low 24 address bits, it spans 16384 small pages —
// far beyond any second-level TLB — so on small pages a large fraction
// of lookups pays a page walk on top of the cache miss. Backing the
// array with 2 MiB pages cuts it to 32 TLB entries.
//
// Allocation policy (HugeBuffer, huge_array.cpp):
//   1. mmap MAP_HUGETLB — explicit huge pages, when the pool has them;
//   2. anonymous mmap + madvise(MADV_HUGEPAGE) — transparent huge pages
//      at the kernel's discretion (reported as kHugeTransparent when the
//      madvise call was accepted; whether THP actually materializes is
//      up to khugepaged and is NOT guaranteed — callers that care about
//      measured TLB behavior must not assume it, see DESIGN.md §14);
//   3. plain anonymous mmap — the 4 KiB fallback;
//   4. operator new — non-POSIX builds.
// Every step downgrades silently: a HugeArray always comes back usable,
// and backing() reports what the process actually got. The test hook
// force_small_pages(true) pins step 3 so the fallback path stays
// exercised on machines where huge pages succeed.
//
// T must be trivially copyable and trivially destructible: the storage
// is raw pages, constructed by fill (or left as the kernel's zero pages
// when the fill is all-zero bytes), never destructed element-wise.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

namespace ixp::util {

/// What actually backs the mapping, in preference order.
enum class PageBacking : std::uint8_t {
  kUnmapped = 0,     ///< empty array
  kHugeExplicit,     ///< MAP_HUGETLB succeeded (guaranteed 2 MiB pages)
  kHugeTransparent,  ///< madvise(MADV_HUGEPAGE) accepted (best effort)
  kSmall,            ///< plain 4 KiB-paged anonymous mapping
  kHeap,             ///< operator new (non-POSIX fallback)
};

[[nodiscard]] std::string_view to_string(PageBacking backing) noexcept;

/// Test hook: when set, new HugeBuffers skip both huge-page attempts and
/// take the plain 4 KiB mapping — the forced-fallback differential tests
/// run the exact code path a huge-page-less host would.
void force_small_pages(bool force) noexcept;
[[nodiscard]] bool small_pages_forced() noexcept;

/// Untyped page-granular buffer; the .cpp owns the mmap/new logic.
class HugeBuffer {
 public:
  HugeBuffer() = default;
  explicit HugeBuffer(std::size_t bytes);
  ~HugeBuffer();

  HugeBuffer(HugeBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)),
        mapped_(std::exchange(other.mapped_, 0)),
        backing_(std::exchange(other.backing_, PageBacking::kUnmapped)) {}
  HugeBuffer& operator=(HugeBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
      mapped_ = std::exchange(other.mapped_, 0);
      backing_ = std::exchange(other.backing_, PageBacking::kUnmapped);
    }
    return *this;
  }
  HugeBuffer(const HugeBuffer&) = delete;
  HugeBuffer& operator=(const HugeBuffer&) = delete;

  [[nodiscard]] void* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] PageBacking backing() const noexcept { return backing_; }

 private:
  void release() noexcept;

  void* data_ = nullptr;
  std::size_t bytes_ = 0;   // requested size
  std::size_t mapped_ = 0;  // mapped size (huge-page rounded)
  PageBacking backing_ = PageBacking::kUnmapped;
};

template <typename T>
class HugeArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "HugeArray storage is raw pages; T must be trivial");

 public:
  HugeArray() = default;

  /// Allocates `count` elements, every one set to `fill`. An all-zero
  /// `fill` on an mmap backing writes nothing: fresh anonymous pages
  /// read as zero, and pages never written never become resident.
  HugeArray(std::size_t count, const T& fill)
      : buffer_(count * sizeof(T)), count_(count) {
    if (backing() != PageBacking::kHeap && all_zero(fill)) return;
    T* out = data();
    for (std::size_t i = 0; i < count_; ++i) out[i] = fill;
  }

  // Not defaulted: count_ must be zeroed in the source, or a moved-from
  // array would report its old size over an unmapped buffer.
  HugeArray(HugeArray&& other) noexcept
      : buffer_(std::move(other.buffer_)),
        count_(std::exchange(other.count_, 0)) {}
  HugeArray& operator=(HugeArray&& other) noexcept {
    buffer_ = std::move(other.buffer_);
    count_ = std::exchange(other.count_, 0);
    return *this;
  }

  [[nodiscard]] T* data() noexcept { return static_cast<T*>(buffer_.data()); }
  [[nodiscard]] const T* data() const noexcept {
    return static_cast<const T*>(buffer_.data());
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] PageBacking backing() const noexcept {
    return buffer_.backing();
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

 private:
  [[nodiscard]] static bool all_zero(const T& value) noexcept {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    return std::all_of(bytes, bytes + sizeof(T),
                       [](unsigned char b) { return b == 0; });
  }

  HugeBuffer buffer_;
  std::size_t count_ = 0;
};

}  // namespace ixp::util
