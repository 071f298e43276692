#include "store/crc32c.hpp"

#include <array>
#include <atomic>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define IXPSCOPE_CRC32C_SSE42 1
#endif

namespace ixp::store {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected

/// Eight slicing tables: table[0] is the classic byte-at-a-time table,
/// table[k][b] extends a CRC whose low byte is b across k+1 zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> build_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables[0][i];
    for (std::size_t t = 1; t < 8; ++t) {
      crc = tables[0][crc & 0xffu] ^ (crc >> 8);
      tables[t][i] = crc;
    }
  }
  return tables;
}

constexpr auto kTables = build_tables();

std::uint32_t load_le32(const std::byte* p) noexcept {
  return std::to_integer<std::uint32_t>(p[0]) |
         (std::to_integer<std::uint32_t>(p[1]) << 8) |
         (std::to_integer<std::uint32_t>(p[2]) << 16) |
         (std::to_integer<std::uint32_t>(p[3]) << 24);
}

std::atomic<std::uint64_t> g_bytes{0};

#ifdef IXPSCOPE_CRC32C_SSE42
/// The SSE4.2 `crc32` instruction computes exactly this polynomial; one
/// stream of 8-byte steps, then the tail a byte at a time. Only called
/// once crc32c_hardware() said the CPU has it.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t crc) noexcept {
  crc = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t wide = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    wide = _mm_crc32_u64(wide, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(wide);
  while (n-- > 0) crc = _mm_crc32_u8(crc, std::to_integer<std::uint8_t>(*p++));
  return ~crc;
}

#endif

}  // namespace

std::uint32_t crc32c_table(std::span<const std::byte> data,
                           std::uint32_t crc) noexcept {
  crc = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ std::to_integer<std::uint8_t>(*p++)) & 0xffu] ^
          (crc >> 8);
  }
  return ~crc;
}

bool crc32c_hardware() noexcept {
#ifdef IXPSCOPE_CRC32C_SSE42
  // Asked once per process; the answer cannot change while it runs.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t crc) noexcept {
  g_bytes.fetch_add(data.size(), std::memory_order_relaxed);
#ifdef IXPSCOPE_CRC32C_SSE42
  if (crc32c_hardware()) return crc32c_sse42(data, crc);
#endif
  return crc32c_table(data, crc);
}

std::uint64_t crc32c_bytes() noexcept {
  return g_bytes.load(std::memory_order_relaxed);
}

}  // namespace ixp::store
