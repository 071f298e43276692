// Process-wide heap-allocation counter: replaces the global operator
// new/delete so a workload can sample alloc_count() before and after a
// region. Each thread counts into its own cache line, so the counter adds
// no contention between the threads it measures.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

void count_one() noexcept {
  thread_local const std::size_t slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count_one();
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded))
    return p;
  throw std::bad_alloc{};
}

}  // namespace

namespace perfbench {

std::uint64_t alloc_count() noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots) total += slot.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
